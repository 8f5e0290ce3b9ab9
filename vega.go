// Package vega is the public API of this repository: a from-scratch Go
// reproduction of "Proactive Runtime Detection of Aging-Related Silent
// Data Corruptions: A Bottom-Up Approach" (ASPLOS 2024).
//
// Vega is a three-phase workflow that turns gate-level knowledge of
// transistor aging into tiny software test cases an application can run
// continuously:
//
//  1. Aging Analysis — simulate representative workloads on the
//     synthesized netlist, collect a signal-probability profile, and run
//     aging-aware static timing analysis to find the signal paths that
//     will violate setup/hold constraints after years of BTI stress.
//  2. Error Lifting — model each violation logically (Eq. 2/3 of the
//     paper), clone the affected cone into a shadow replica, and use
//     bounded model checking to derive an input trace that provably
//     exposes the fault; then lower the trace to RISC-V instructions.
//  3. Test Integration — package the tests as a software aging library,
//     or embed them into an application at a profile-chosen basic block
//     under an overhead budget.
//
// The full pipeline runs against gate-level ALU and FPU models of a
// CV32E40P-class RISC-V core, synthesized, aged, verified, and executed
// entirely inside this module (see DESIGN.md for the substitutions made
// for the paper's proprietary EDA toolchain).
//
// Quick start:
//
//	w := vega.NewALU(vega.Config{})
//	sta, _ := w.AgingAnalysis()              // phase 1
//	results, _ := w.ErrorLifting()           // phase 2
//	suite := w.Suite()                       // the generated tests
//	rows, _ := w.TestQuality(suite)          // run them against aged silicon
package vega

import (
	"repro/internal/core"
	"repro/internal/lift"
)

// Config tunes a workflow run; the zero value selects the paper's
// defaults (10-year lifetime, all embench workloads, no mitigation).
type Config = core.Config

// Workflow drives the three phases for one hardware unit.
type Workflow = core.Workflow

// Suite is an ordered collection of generated test cases.
type Suite = lift.Suite

// LiftConfig tunes the Error Lifting phase.
type LiftConfig = lift.Config

// NewALU creates a workflow for the CV32E40P-style ALU (167 MHz).
func NewALU(cfg Config) *Workflow { return core.NewALU(cfg) }

// NewFPU creates a workflow for the FPNew-style FPU (250 MHz).
func NewFPU(cfg Config) *Workflow { return core.NewFPU(cfg) }

// MergeSuites concatenates per-unit suites for joint integration.
func MergeSuites(suites ...*Suite) *Suite { return core.MergeSuites(suites...) }

// SuiteCycles measures a suite's one-pass cycle cost on the healthy CPU.
func SuiteCycles(s *Suite) (uint64, error) { return core.SuiteCycles(s) }

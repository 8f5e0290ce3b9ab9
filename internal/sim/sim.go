// Package sim implements a cycle-accurate, two-phase logic simulator for
// netlists: in each cycle the combinational logic settles in topological
// order, signal-probability counters sample every net, and then the
// rising clock edge updates all flip-flops whose (possibly gated) clock is
// enabled.
//
// The SP counters reproduce the paper's Signal Probability Simulation
// (§3.2.1): a counter attached to every cell output, driven by a
// free-running clock that keeps ticking even when the circuit's own clock
// is gated off. In this simulator the free-running clock is the Step()
// call itself, so gated-off cells still accumulate residency every cycle.
//
// Simulator is the stateful scalar front-end over a compiled
// engine.Program — the peer of engine.Packed, which is the 64-lane one:
// the netlist is lowered once into a shared read-only program
// (engine.Cached) and the simulator owns what one run adds to it — net
// values, staged flip-flop state, the cycle count, SP counters and
// recorded waveforms.
package sim

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/netlist"
)

// Simulator simulates one netlist instance. It is not safe for concurrent
// use; create one per goroutine.
type Simulator struct {
	nl     *netlist.Netlist
	prog   *engine.Program
	vals   []bool // current value of every net
	next   []bool // staged DFF next-state, one slot per flip-flop
	dirty  bool   // inputs changed since last settle
	cycles uint64

	spEnabled bool
	spCycles  uint64    // cycles sampled so far
	spOnes    []float64 // per net: accumulated logical-"1" residency

	recordNets []netlist.NetID
	waves      [][]bool
}

// New creates a simulator in the reset state: all DFFs hold their Init
// value and all primary inputs are 0.
func New(nl *netlist.Netlist) *Simulator {
	prog := engine.Cached(nl)
	s := &Simulator{
		nl:   nl,
		prog: prog,
		vals: make([]bool, nl.NumNets),
		next: make([]bool, len(prog.DFFs)),
	}
	s.Reset()
	return s
}

// Program returns the compiled program the simulator runs on.
func (s *Simulator) Program() *engine.Program { return s.prog }

// Reset re-applies reset values to all flip-flops, clears inputs, and
// zeroes the cycle counter. SP counters (with the number of cycles they
// were sampled over) and recorded waveforms are preserved so multi-run
// profiles can accumulate; call ResetSP to clear the former.
func (s *Simulator) Reset() {
	s.prog.ResetScalar(s.vals)
	s.cycles = 0
	s.dirty = true
}

// EnableSP turns on signal-probability accumulation.
func (s *Simulator) EnableSP() {
	s.spEnabled = true
	if s.spOnes == nil {
		s.spOnes = make([]float64, s.nl.NumNets)
	}
}

// ResetSP clears accumulated SP counters.
func (s *Simulator) ResetSP() {
	for i := range s.spOnes {
		s.spOnes[i] = 0
	}
	s.spCycles = 0
}

// Record registers nets whose settled value is captured every cycle.
func (s *Simulator) Record(nets ...netlist.NetID) {
	s.recordNets = append(s.recordNets, nets...)
}

// Waves returns the recorded waveform: one row per executed cycle, one
// column per recorded net (in Record order).
func (s *Simulator) Waves() [][]bool { return s.waves }

// Cycles returns the number of executed clock cycles.
func (s *Simulator) Cycles() uint64 { return s.cycles }

// SetInput drives a (multi-bit) input port with the low len(port) bits of
// val, LSB first.
func (s *Simulator) SetInput(name string, val uint64) {
	p, ok := s.nl.FindInput(name)
	if !ok {
		panic(fmt.Sprintf("sim: no input port %q on %s", name, s.nl.Name))
	}
	for i, n := range p.Bits {
		s.vals[n] = val>>uint(i)&1 == 1
	}
	s.dirty = true
}

// SetInputBits drives an input port from a bool slice (LSB first). The
// slice length must match the port width.
func (s *Simulator) SetInputBits(name string, bits []bool) {
	p, ok := s.nl.FindInput(name)
	if !ok {
		panic(fmt.Sprintf("sim: no input port %q on %s", name, s.nl.Name))
	}
	if len(bits) != len(p.Bits) {
		panic(fmt.Sprintf("sim: port %q width %d, got %d bits", name, len(p.Bits), len(bits)))
	}
	for i, n := range p.Bits {
		s.vals[n] = bits[i]
	}
	s.dirty = true
}

// Settle propagates values through the combinational logic (and the clock
// network) without advancing the clock.
func (s *Simulator) Settle() {
	if !s.dirty {
		return
	}
	s.prog.Settle(s.vals)
	s.dirty = false
}

// Step completes the current cycle: settle, sample SP counters and
// waveforms, then apply the rising clock edge to every DFF whose clock net
// is enabled. The flip-flop update runs over the program's precomputed
// DFF list — not a scan of all cells — with the staged next-state held in
// a per-flip-flop scratch buffer.
func (s *Simulator) Step() {
	s.Settle()
	if s.spEnabled {
		s.sampleSP()
	}
	if len(s.recordNets) > 0 {
		row := make([]bool, len(s.recordNets))
		for i, n := range s.recordNets {
			row[i] = s.vals[n]
		}
		s.waves = append(s.waves, row)
	}
	s.prog.StepDFFs(s.vals, s.next)
	s.cycles++
	s.dirty = true
}

// Run executes n cycles with the current inputs.
func (s *Simulator) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// sampleSP accumulates one cycle of residency. Data nets contribute their
// settled logical value; clock-network nets contribute 0.5 when the clock
// is running (it spends half of each period high) and 0.0 when gated off
// (a gated clock idles low).
func (s *Simulator) sampleSP() {
	isClockNet := s.prog.IsClockNet
	for n := 0; n < s.nl.NumNets; n++ {
		switch {
		case isClockNet[n]:
			if s.vals[n] {
				s.spOnes[n] += 0.5
			}
		case s.vals[n]:
			s.spOnes[n] += 1.0
		}
	}
	s.spCycles++
}

// Output reads a (multi-bit) output port as a uint64 (LSB first), after
// settling.
func (s *Simulator) Output(name string) uint64 {
	p, ok := s.nl.FindOutput(name)
	if !ok {
		panic(fmt.Sprintf("sim: no output port %q on %s", name, s.nl.Name))
	}
	s.Settle()
	var v uint64
	for i, n := range p.Bits {
		if s.vals[n] {
			v |= 1 << uint(i)
		}
	}
	return v
}

// Net reads the settled value of a single net.
func (s *Simulator) Net(n netlist.NetID) bool {
	s.Settle()
	return s.vals[n]
}

// SP returns the signal probability of net n over all sampled cycles.
func (s *Simulator) SP(n netlist.NetID) float64 {
	if s.spCycles == 0 {
		return 0
	}
	return s.spOnes[n] / float64(s.spCycles)
}

// Profile is engine.Profile under its old name. Nothing in the tree
// but internal/bench/scale.go (frozen by BENCHMARK.json's paths) uses
// the alias; it goes with the next benchmark issue, alongside
// inject.PackedClassStats.Fallbacks.
type Profile = engine.Profile

// Profile snapshots the accumulated SP counters. Cycles is the number of
// cycles they were sampled over — every Step since EnableSP (or the
// last ResetSP), across any Reset in between.
func (s *Simulator) Profile() *engine.Profile {
	p := &engine.Profile{
		Cycles: s.spCycles,
		SP:     make([]float64, s.nl.NumNets),
		Ones:   make([]float64, s.nl.NumNets),
	}
	copy(p.Ones, s.spOnes)
	if s.spCycles == 0 {
		return p
	}
	for n := range p.SP {
		p.SP[n] = s.spOnes[n] / float64(s.spCycles)
	}
	return p
}

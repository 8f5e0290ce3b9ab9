// Package lift implements the paper's Instruction Construction step
// (§3.3.5): it turns a cycle-accurate module-level trace from the
// bounded model checker into a short RISC-V test case — operand register
// preloads, a back-to-back burst of the operations the trace prescribes,
// and golden-value checks that branch to a failure trap on mismatch.
//
// Construct drives the whole Error Lifting phase for one aging-prone
// start/end pair: failure-model instrumentation, trace generation, and
// conversion, for each (C, edge-filter) variant. Its outcomes are the
// four categories of the paper's Table 4: Success, Unreachable (formally
// proven harmless), FormalTimeout, and ConversionFailure.
package lift

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/alu"
	"repro/internal/bmc"
	"repro/internal/fault"
	"repro/internal/fpu"
	"repro/internal/module"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// Outcome classifies one construction attempt (the paper's Table 4).
type Outcome int

// Outcomes.
const (
	Success       Outcome = iota // "S": a test case was produced
	Unreachable                  // "UR": formally proven harmless
	FormalTimeout                // "FF": the formal tool ran out of budget
	ConvFail                     // "FC": trace exists but is not convertible
)

func (o Outcome) String() string {
	switch o {
	case Success:
		return "S"
	case Unreachable:
		return "UR"
	case FormalTimeout:
		return "FF"
	}
	return "FC"
}

// CoverKind classifies what the test case observes.
type CoverKind int

// Cover kinds.
const (
	CoverResult CoverKind = iota
	CoverFlags
	CoverHandshake
)

// OpStim is one module operation prescribed by a trace.
type OpStim struct {
	Op   uint32
	A, B uint32
}

// OpExpect is the golden outcome of an operation.
type OpExpect struct {
	Result uint32
	Flags  uint32
}

// TestCase is one lifted software test.
type TestCase struct {
	Name      string
	Unit      string // "ALU" or "FPU"
	Spec      fault.Spec
	Ops       []OpStim
	Expected  []OpExpect
	CoverOp   int // index of the operation whose output the fault corrupts
	CoverKind CoverKind
	FlagsBit  int // for CoverFlags
	// Conditioned marks a prepended reset-state-conditioning operation
	// at index 0 (§3.3.5); it activates the trace but is not checked.
	Conditioned bool
}

// Result is the outcome of one construction attempt.
type Result struct {
	Spec    fault.Spec
	Outcome Outcome
	Case    *TestCase
	// Depth is the BMC unroll depth of the verdict; for Success it is
	// the provably minimal cover depth (bmc.Result.Depth).
	Depth  int
	Reason string
	// Stats is the solver effort behind the attempt's cover query.
	Stats bmc.Stats
}

// OutcomeStats aggregates the solver effort of every attempt that ended
// in one outcome — the per-outcome cost profile of the Error Lifting
// phase (Timeouts are where the conflict budget went; Unreachables are
// where the UNSAT proofs got cheaper with incremental solving).
type OutcomeStats struct {
	Outcome  Outcome
	Attempts int
	// MinDepth/MaxDepth span the verdict depths seen (minimal cover
	// depths for Success/ConvFail, proof bounds for Unreachable).
	MinDepth, MaxDepth int
	Stats              bmc.Stats
}

// StatsByOutcome aggregates construction results per outcome, in the
// fixed order Success, Unreachable, FormalTimeout, ConvFail. Outcomes
// with no attempts are omitted.
func StatsByOutcome(results []Result) []OutcomeStats {
	byOutcome := map[Outcome]*OutcomeStats{}
	for _, r := range results {
		os, ok := byOutcome[r.Outcome]
		if !ok {
			os = &OutcomeStats{Outcome: r.Outcome, MinDepth: r.Depth, MaxDepth: r.Depth}
			byOutcome[r.Outcome] = os
		}
		os.Attempts++
		if r.Depth < os.MinDepth {
			os.MinDepth = r.Depth
		}
		if r.Depth > os.MaxDepth {
			os.MaxDepth = r.Depth
		}
		os.Stats = os.Stats.Add(r.Stats)
	}
	var out []OutcomeStats
	for _, o := range []Outcome{Success, Unreachable, FormalTimeout, ConvFail} {
		if os, ok := byOutcome[o]; ok {
			out = append(out, *os)
		}
	}
	return out
}

// Config tunes construction.
type Config struct {
	// Mitigation enables the §3.3.4 edge-filtered variants (rising and
	// falling) instead of the plain any-change activation, doubling the
	// variant count per pair.
	Mitigation bool
	// DisableConditioning skips the reset-state-conditioning operation
	// normally prepended to every test case (§3.3.5). Ablation only: it
	// re-exposes the raw initial-value dependency of the formal traces.
	DisableConditioning bool
}

// issuePeriod is the module-cycle cadence of one offloaded instruction
// on the surrounding in-order CPU: one valid cycle plus the pipeline
// drain (module latency).
func issuePeriod(m *module.Module) int { return m.Latency + 1 }

// BMCConfig builds the module's assume-environment for a cover query —
// the same microarchitectural restrictions Construct applies — so other
// callers (`vega failnets -cover`, benchmarks) issue exactly the
// queries the lifting phase would.
func BMCConfig(m *module.Module, cfg Config) bmc.Config { return bmcConfig(m, cfg) }

// bmcConfig builds the module's assume-environment.
func bmcConfig(m *module.Module, cfg Config) bmc.Config {
	var ops []uint64
	for op := uint32(0); ; op++ {
		if !m.OpValid(op) {
			break
		}
		ops = append(ops, uint64(op))
	}
	return bmc.Config{
		Assume:     []bmc.PortConstraint{{Port: module.PortOp, Allowed: ops}},
		FixedPulse: &bmc.Pulse{Port: module.PortInValid, Period: issuePeriod(m)},
		ValidPort:  module.PortOutValid,
	}
}

// Construct runs Error Lifting for one aging-prone pair, producing one
// Result per (C, edge) variant: 2 without mitigation, 4 with.
func Construct(m *module.Module, pair sta.Pair, pathType sta.PathType, cfg Config) []Result {
	edges := []fault.EdgeFilter{fault.AnyChange}
	if cfg.Mitigation {
		edges = []fault.EdgeFilter{fault.RisingEdge, fault.FallingEdge}
	}
	var out []Result
	for _, edge := range edges {
		for _, c := range []fault.CValue{fault.C0, fault.C1} {
			spec := fault.Spec{Type: pathType, Start: pair.Start, End: pair.End, C: c, Edge: edge}
			out = append(out, constructOne(m, spec, cfg))
		}
	}
	return out
}

func constructOne(m *module.Module, spec fault.Spec, cfg Config) Result {
	inst := fault.ShadowReplica(m.Netlist, spec)
	res := bmc.Cover(inst.Netlist, inst.Covers, bmcConfig(m, cfg))
	r := Result{Spec: spec, Depth: res.Depth, Stats: res.Stats}
	switch res.Verdict {
	case bmc.Unreachable:
		r.Outcome = Unreachable
		return r
	case bmc.Timeout:
		r.Outcome = FormalTimeout
		return r
	}
	tc, err := convert(m, spec, res.Trace, !cfg.DisableConditioning)
	if err != nil {
		r.Outcome = ConvFail
		r.Reason = err.Error()
		return r
	}
	r.Outcome = Success
	r.Case = tc
	return r
}

// Convert translates a trace into a test case, or explains why it cannot
// be (the "FC" outcome).
func Convert(m *module.Module, spec fault.Spec, tr *bmc.Trace) (*TestCase, error) {
	return convert(m, spec, tr, true)
}

func convert(m *module.Module, spec fault.Spec, tr *bmc.Trace, condition bool) (*TestCase, error) {
	period := issuePeriod(m)
	opsIn := tr.Inputs[module.PortOp]
	asIn := tr.Inputs[module.PortA]
	bsIn := tr.Inputs[module.PortB]

	var ops []OpStim
	for t := 0; t < tr.Cycles; t += period {
		ops = append(ops, OpStim{Op: uint32(opsIn[t]), A: uint32(asIn[t]), B: uint32(bsIn[t])})
	}
	if len(ops) > maxOpsPerCase {
		return nil, fmt.Errorf("trace needs %d operations, exceeding the register budget", len(ops))
	}

	kind, bit, err := classifyCover(tr.CoverPoint.Name)
	if err != nil {
		return nil, err
	}

	coverOp := len(ops) - 1
	if kind != CoverHandshake {
		if tr.CoverCycle < m.Latency {
			return nil, fmt.Errorf("divergence at cycle %d precedes any architectural result", tr.CoverCycle)
		}
		coverOp = (tr.CoverCycle - m.Latency) / period
		if coverOp >= len(ops) {
			coverOp = len(ops) - 1
		}
		// Operations after the corrupted one neither activate nor
		// observe the fault: drop them to keep the suite compact.
		ops = ops[:coverOp+1]
	}

	// State conditioning (§3.3.5's register-value mapping): the formal
	// trace assumes the unit starts from its reset state, but in a real
	// run the preceding instructions leave arbitrary values in the
	// operand and op registers. Prepending an all-zeros operation (op
	// encoding 0 with zero operands) re-establishes the reset-equivalent
	// state so the trace's activation conditions hold as proven.
	conditioned := false
	if condition && (len(ops) == 0 || ops[0] != (OpStim{})) {
		ops = append([]OpStim{{}}, ops...)
		coverOp++
		conditioned = true
	}

	tc := &TestCase{
		Name:        fmt.Sprintf("%s_%s", strings.ToLower(m.Name), sanitizeName(spec.Name(m.Netlist))),
		Unit:        m.Name,
		Spec:        spec,
		Ops:         ops,
		CoverOp:     coverOp,
		CoverKind:   kind,
		FlagsBit:    bit,
		Conditioned: conditioned,
	}
	for _, op := range ops {
		res, flags := m.Golden(op.Op, op.A, op.B)
		tc.Expected = append(tc.Expected, OpExpect{Result: res, Flags: flags})
	}

	switch m.Name {
	case "ALU":
		if err := checkALUConvertible(m, tc); err != nil {
			return nil, err
		}
	case "FPU":
		if err := checkFPUConvertible(m, tc); err != nil {
			return nil, err
		}
	}
	return tc, nil
}

// maxOpsPerCase is bounded by the temporary-register pool of the
// emission templates.
const maxOpsPerCase = 5

func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}

func classifyCover(name string) (CoverKind, int, error) {
	switch {
	case strings.HasPrefix(name, module.PortResult):
		return CoverResult, 0, nil
	case strings.HasPrefix(name, module.PortFlags):
		i := strings.IndexByte(name, '[')
		j := strings.IndexByte(name, ']')
		if i < 0 || j < i {
			return 0, 0, fmt.Errorf("unparseable cover point %q", name)
		}
		bit, err := strconv.Atoi(name[i+1 : j])
		if err != nil {
			return 0, 0, err
		}
		return CoverFlags, bit, nil
	case strings.HasPrefix(name, module.PortOutValid):
		return CoverHandshake, 0, nil
	default:
		// Auxiliary status outputs (busy, flags_valid) are handshake-
		// class: their corruption manifests as protocol misbehavior.
		return CoverHandshake, 0, nil
	}
}

// checkALUConvertible rejects traces this CPU cannot faithfully express.
func checkALUConvertible(m *module.Module, tc *TestCase) error {
	if tc.CoverKind != CoverFlags {
		return nil
	}
	// A flags-path fault is observable only through branch resolution,
	// so the cover operation is emitted as branch instructions (the ALU
	// computes comparison flags regardless of op). That rewrite is
	// invalid if the fault activates from an op-register bit: changing
	// the op encoding would change the activation itself.
	if isOpRegister(m, tc.Spec.Start) {
		return fmt.Errorf("flags fault launches from an op register; branch rewrite would change activation")
	}
	return nil
}

// checkFPUConvertible applies the paper's status-flag maskability rule:
// the fflags CSR accumulates (ORs) per-op flags, so a corrupted flag bit
// is invisible whenever the rest of the test's burst produces the same
// sticky value.
func checkFPUConvertible(m *module.Module, tc *TestCase) error {
	if tc.CoverKind != CoverFlags {
		return nil
	}
	bit := uint32(1) << uint(tc.FlagsBit)
	var othersSticky uint32
	for i, e := range tc.Expected {
		if i != tc.CoverOp {
			othersSticky |= e.Flags
		}
	}
	goldenFinal := othersSticky | tc.Expected[tc.CoverOp].Flags
	var corrupted uint32
	switch tc.Spec.C {
	case fault.C1:
		corrupted = othersSticky | (tc.Expected[tc.CoverOp].Flags | bit)
	case fault.C0:
		corrupted = othersSticky | (tc.Expected[tc.CoverOp].Flags &^ bit)
	}
	if corrupted&bit == goldenFinal&bit {
		return fmt.Errorf("status flag bit %d is already set by a prior instruction in the burst; corruption is masked", tc.FlagsBit)
	}
	return nil
}

// isOpRegister reports whether the DFF's D input is wired directly to a
// bit of the op input port.
func isOpRegister(m *module.Module, ff netlist.CellID) bool {
	p, ok := m.Netlist.FindInput(module.PortOp)
	if !ok {
		return false
	}
	d := m.Netlist.Cells[ff].In[0]
	for _, n := range p.Bits {
		if n == d {
			return true
		}
	}
	return false
}

// GoldenALUFlags exposes the comparison-flag golden model for emission.
func GoldenALUFlags(a, b uint32) (eq, lt, ltu bool) {
	f := alu.Flags(a, b)
	return f&1 != 0, f&2 != 0, f&4 != 0
}

// stickyFlags computes the expected final fflags value of a test burst.
func stickyFlags(tc *TestCase) uint32 {
	var v uint32
	for _, e := range tc.Expected {
		v |= e.Flags
	}
	return v
}

// fpuOpWritesInt reports whether the FPU op's result lands in an integer
// register (compares and classify) rather than an FP register.
func fpuOpWritesInt(op fpu.Op) bool {
	switch op {
	case fpu.OpFle, fpu.OpFlt, fpu.OpFeq, fpu.OpFclass:
		return true
	}
	return false
}

// CoverPointName renders what the test case observes, for reports.
func (tc *TestCase) CoverPointName() string {
	switch tc.CoverKind {
	case CoverResult:
		return "result"
	case CoverFlags:
		return fmt.Sprintf("flags[%d]", tc.FlagsBit)
	default:
		return "handshake"
	}
}

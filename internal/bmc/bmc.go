// Package bmc implements bounded model checking over netlists: it unrolls
// the synchronous circuit cycle by cycle into CNF (Tseitin encoding), adds
// the caller's assume-constraints on input ports, and asks the CDCL solver
// (internal/sat) for an input sequence satisfying a cover property — the
// same `cover property (o != o_s)` query the paper hands to JasperGold in
// its Trace Generation step (§3.3.3).
//
// Cover solves incrementally: one search per fault spec, on a solver
// whose storage an earlier spec's search left behind (sat.Solver.Reset).
// The transition relation is encoded frame by frame as the bound
// deepens, each depth's cover disjunction is guarded by a fresh
// activation literal and asserted via assumptions, and a refuted window
// is retired by adding the activation literal's negation as a unit
// clause. Learnt clauses survive across all depths of one spec (none
// survives into the next), and the bound deepens one cycle at a time,
// so the reported depth is the provably minimal cover depth — shorter
// traces mean fewer RISC-V instructions per embedded test. The
// from-scratch single-solve path is the test-only oracle
// (incremental_test.go) the differential and fuzz targets hold Cover to.
//
// Verdicts map to the paper's Table 4 outcomes: Covered (a trace exists —
// "S" once instruction construction succeeds), Unreachable (the property
// is UNSAT through the unroll bound, which exceeds the sequential depth
// of these feed-forward pipeline modules — "UR"), and Timeout (the
// solver's conflict budget ran out — "FF").
package bmc

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// maxDepth is the unroll bound in cycles. The modules under analysis
// are two-stage pipelines whose architectural state is fully
// input-controlled within three cycles, so the bound exceeds their
// sequential diameter and an UNSAT verdict is a proof. A variable so a
// test can reach an unreachable-within-bound verdict on a small circuit.
var maxDepth = 8

// maxConflicts is a shared solver-effort budget spread across the whole
// deepening schedule of one query; exhausting it yields Timeout — the
// paper's "FF" outcome. A variable so a test can starve a query.
var maxConflicts int64 = 2_000_000

// Config parameterizes a cover query.
type Config struct {
	// Assume restricts input-port values per cycle (the paper's
	// assume-property input restrictions).
	Assume []PortConstraint
	// FixedPulse, when set, pins a 1-bit input port to a strict cadence:
	// high exactly when the cycle index is a multiple of Period. This
	// encodes how the surrounding in-order CPU actually drives the
	// module — one operation every issue slot, the unit idle in between
	// — so that every produced trace is directly realizable as an
	// instruction sequence (§3.3.3's microarchitectural restrictions).
	FixedPulse *Pulse
	// ValidPort, when set, names the 1-bit handshake output gating
	// architectural observability. A divergence on a data output then
	// only counts when the faulty (shadow) machine asserts the
	// handshake; a divergence on the handshake bit itself always counts
	// (the software-visible symptom is a stall). This is the
	// microarchitecture-aware restriction of §3.3.3 that keeps traces
	// convertible to instructions.
	ValidPort string
}

// PortConstraint requires an input port to take one of the allowed
// values on every cycle.
type PortConstraint struct {
	Port    string
	Allowed []uint64
}

// Pulse pins a 1-bit port high exactly every Period cycles (see
// Config.FixedPulse).
type Pulse struct {
	Port   string
	Period int
}

// Verdict is the outcome of a cover query.
type Verdict int

// Outcomes.
const (
	Covered Verdict = iota
	Unreachable
	Timeout
)

func (v Verdict) String() string {
	switch v {
	case Covered:
		return "covered"
	case Unreachable:
		return "unreachable"
	}
	return "timeout"
}

// Trace is a cycle-accurate module-level input sequence (the paper's
// Table 2 artifact), plus which cover point fired and when. Traces are
// truncated to the cover cycle: Cycles == CoverCycle+1.
type Trace struct {
	Cycles     int
	Inputs     map[string][]uint64 // port -> per-cycle value
	CoverCycle int
	CoverPoint fault.CoverPoint
}

// Stats summarizes the formal effort behind one cover query: the CNF
// size, how many incremental Solve calls the deepening schedule issued,
// and the CDCL counters accumulated across all of them (learnt clauses
// are shared between the calls — that sharing is the point).
type Stats struct {
	Solves  int // incremental Solve calls issued
	Vars    int // CNF variables allocated
	Clauses int // problem clauses held (excl. learnt)
	Solver  sat.Stats
}

// Add returns the field-wise sum of two snapshots, for aggregation
// across queries.
func (a Stats) Add(b Stats) Stats {
	return Stats{
		Solves:  a.Solves + b.Solves,
		Vars:    a.Vars + b.Vars,
		Clauses: a.Clauses + b.Clauses,
		Solver:  a.Solver.Add(b.Solver),
	}
}

// Result bundles the verdict with the trace (when covered) and the
// solver effort behind the query.
type Result struct {
	Verdict Verdict
	Trace   *Trace
	// Depth is the unroll depth at which the verdict was reached. For
	// Covered it is the provably minimal cover depth
	// (== Trace.CoverCycle+1): every shallower depth was refuted on the
	// way up.
	Depth int
	Stats Stats
}

// Cover searches for an input sequence that makes any of the cover
// points differ from its shadow, by true iterative deepening on a single
// incremental solver: depth d's transition frames extend the running
// CNF, depth d's cover window is asserted under an activation-literal
// assumption, and a refuted window is retired with a unit clause so
// everything learnt keeps pruning all later depths.
//
// The solver and the per-frame variable tables come from a pool, emptied
// on the way out of it: a lift is dozens of queries of much the same
// size, and each would otherwise grow the same arrays by doubling from
// nothing. They go back after a covered query only. One that ran to the
// bound or out of budget has encoded every frame up to maxDepth and
// holds several times the room a covered query stops at; pooled, that
// room would stay live through all the small queries behind it.
// Nothing in the Result points into pooled memory.
// An unroller that is not pooled is collected at once: left to the
// pacer, its room (22 MB for an FPU hold pair at depth 8) is live at the
// next mark or not by timing alone, and when it is, the heap goal
// doubles it — the FPU lift's peak resident set swung between 40 and
// 50 MB from run to run.
func Cover(nl *netlist.Netlist, covers []fault.CoverPoint, cfg Config) *Result {
	if len(covers) == 0 {
		return &Result{Verdict: Unreachable, Depth: 0}
	}
	u := unrollers.Get().(*unroller)
	u.reset(engine.Cached(nl), cfg)
	res := u.cover(covers)
	if res.Verdict == Covered {
		unrollers.Put(u)
	} else {
		runtime.GC()
	}
	return res
}

var unrollers = sync.Pool{New: func() any { return &unroller{s: sat.New()} }}

// cover is the deepening schedule on a reset unroller: one cycle per
// window.
func (u *unroller) cover(covers []fault.CoverPoint) *Result {
	for depth := 1; depth <= maxDepth; depth++ {
		u.extendTo(depth)
		switch u.solveWindow(covers, depth-1) {
		case sat.Sat:
			tr := u.extract(covers)
			return &Result{Verdict: Covered, Trace: tr, Depth: tr.Cycles, Stats: u.stats()}
		case sat.Unknown:
			return &Result{Verdict: Timeout, Depth: depth, Stats: u.stats()}
		}
	}
	return &Result{Verdict: Unreachable, Depth: maxDepth, Stats: u.stats()}
}

// Replay simulates the instrumented netlist under the trace's inputs and
// reports whether the cover point actually diverges at the reported
// cycle — the soundness check that every BMC result in this repository
// is validated against (DESIGN.md invariants).
func Replay(nl *netlist.Netlist, tr *Trace) bool {
	e := engine.NewPacked(engine.Cached(nl))
	for t := 0; t < tr.Cycles; t++ {
		for port, vals := range tr.Inputs {
			e.SetInput(port, vals[t])
		}
		if t == tr.CoverCycle {
			e.Settle()
			return e.Lane(tr.CoverPoint.Orig, 0) != e.Lane(tr.CoverPoint.Shadow, 0)
		}
		e.Step()
	}
	return false
}

// unroller owns the incremental CNF: one solver whose formula grows one
// transition frame at a time. vars[t][net] is the solver variable of a
// net at cycle t (-1 if not yet allocated); frames once encoded are
// never re-encoded. Between queries an unroller rests in the pool with
// its solver's storage and its frame tables; reset makes it the
// unroller of a new query.
type unroller struct {
	nl   *netlist.Netlist
	prog *engine.Program
	cfg  Config
	s    *sat.Solver

	vars [][]int

	constTrue  int
	constFalse int

	// Ports of the assume-environment, resolved once: the bits of each
	// Config.Assume constraint, and FixedPulse's bit (NoNet when unset).
	assume []netlist.Bus
	pulse  netlist.NetID

	budget int64 // remaining shared conflict budget
	solves int
}

// reset empties the unroller and its solver and points them at a new
// query; the solver's storage and the frame tables keep their room.
func (u *unroller) reset(prog *engine.Program, cfg Config) {
	u.s.Reset()
	*u = unroller{nl: prog.Netlist, prog: prog, cfg: cfg, s: u.s, budget: maxConflicts,
		vars: u.vars[:0], assume: u.assume[:0]}
	u.constTrue = u.s.NewVar()
	u.constFalse = u.s.NewVar()
	u.s.AddClause(sat.MkLit(u.constTrue, false))
	u.s.AddClause(sat.MkLit(u.constFalse, true))
	for _, pc := range cfg.Assume {
		p, ok := u.nl.FindInput(pc.Port)
		if !ok {
			panic(fmt.Sprintf("bmc: assume on unknown port %q", pc.Port))
		}
		u.assume = append(u.assume, p.Bits)
	}
	u.pulse = netlist.NoNet
	if fp := cfg.FixedPulse; fp != nil {
		p, ok := u.nl.FindInput(fp.Port)
		if !ok || len(p.Bits) != 1 {
			panic(fmt.Sprintf("bmc: FixedPulse port %q is not a 1-bit input", fp.Port))
		}
		u.pulse = p.Bits[0]
	}
}

func (u *unroller) lit(t int, n netlist.NetID, neg bool) sat.Lit {
	return sat.MkLit(u.vars[t][n], neg)
}

// extendTo appends transition frames until the unroll spans depth
// cycles. Everything already encoded — frames, retired cover windows,
// learnt clauses — is untouched.
func (u *unroller) extendTo(depth int) {
	for t := len(u.vars); t < depth; t++ {
		u.pushFrame(t)
	}
}

// pushFrame encodes cycle t: fresh input and state variables, the
// transition from frame t-1 (or the reset state for frame 0), the
// combinational logic by walking the compiled program — the flattened
// instruction stream supplies the cells in dependency order, the same
// order the evaluators use — and the per-cycle input restrictions.
func (u *unroller) pushFrame(t int) {
	nl, prog := u.nl, u.prog

	// The frame's table is the one an earlier query left at this depth,
	// when it has the room.
	var frame []int
	if t < cap(u.vars) {
		frame = u.vars[:t+1][t]
	}
	if cap(frame) < nl.NumNets {
		frame = make([]int, nl.NumNets)
	}
	frame = frame[:nl.NumNets]
	for i := range frame {
		frame[i] = -1
	}
	u.vars = append(u.vars, frame)

	if nl.ClockRoot != netlist.NoNet {
		frame[nl.ClockRoot] = u.constTrue // root clock always enabled
	}
	for _, p := range nl.Inputs {
		for _, n := range p.Bits {
			frame[n] = u.s.NewVar()
		}
	}
	for i := range prog.DFFs {
		frame[prog.DFFs[i].Out] = u.s.NewVar()
	}

	if t == 0 {
		// Initial state: reset values.
		for i := range prog.DFFs {
			f := &prog.DFFs[i]
			u.s.AddClause(sat.MkLit(frame[f.Out], !f.Init))
		}
	} else {
		// next = clk ? D : cur (clock nets carry the enable); frame t-1
		// is fully encoded, so its D nets already have variables.
		for i := range prog.DFFs {
			f := &prog.DFFs[i]
			u.encodeMux(frame[f.Out], u.vars[t-1][f.Out], u.vars[t-1][f.D], u.vars[t-1][f.Clk])
		}
	}

	for _, k := range prog.Topo {
		u.encodeOp(t, &prog.Ops[k])
	}
	u.encodeAssumes(t)

	if u.pulse != netlist.NoNet {
		high := t%u.cfg.FixedPulse.Period == 0
		u.s.AddClause(sat.MkLit(frame[u.pulse], !high))
	}
}

// encodeAssumes adds the per-cycle input restrictions.
func (u *unroller) encodeAssumes(t int) {
	for i, pc := range u.cfg.Assume {
		var sel []sat.Lit
		for _, v := range pc.Allowed {
			// aux -> bits match v
			aux := u.s.NewVar()
			for b, n := range u.assume[i] {
				bitSet := v>>uint(b)&1 == 1
				u.s.AddClause(sat.MkLit(aux, true), u.lit(t, n, !bitSet))
			}
			sel = append(sel, sat.MkLit(aux, false))
		}
		u.s.AddClause(sel...)
	}
}

// fresh allocates the output variable of a combinational cell.
func (u *unroller) out(t int, n netlist.NetID) int {
	if u.vars[t][n] == -1 {
		u.vars[t][n] = u.s.NewVar()
	}
	return u.vars[t][n]
}

func (u *unroller) encodeOp(t int, op *engine.Op) {
	s := u.s
	switch op.Kind {
	case cell.TIE0:
		u.vars[t][op.Out] = u.constFalse
	case cell.TIE1:
		u.vars[t][op.Out] = u.constTrue
	case cell.BUF, cell.CLKBUF:
		u.vars[t][op.Out] = u.vars[t][op.In[0]]
	case cell.INV:
		y := u.out(t, netlist.NetID(op.Out))
		a := u.vars[t][op.In[0]]
		s.AddClause(sat.MkLit(y, false), sat.MkLit(a, false))
		s.AddClause(sat.MkLit(y, true), sat.MkLit(a, true))
	case cell.AND2, cell.CLKGATE:
		u.encodeAnd(u.out(t, netlist.NetID(op.Out)), u.vars[t][op.In[0]], u.vars[t][op.In[1]], false)
	case cell.NAND2:
		u.encodeAnd(u.out(t, netlist.NetID(op.Out)), u.vars[t][op.In[0]], u.vars[t][op.In[1]], true)
	case cell.OR2:
		u.encodeOr(u.out(t, netlist.NetID(op.Out)), u.vars[t][op.In[0]], u.vars[t][op.In[1]], false)
	case cell.NOR2:
		u.encodeOr(u.out(t, netlist.NetID(op.Out)), u.vars[t][op.In[0]], u.vars[t][op.In[1]], true)
	case cell.XOR2:
		u.encodeXor(u.out(t, netlist.NetID(op.Out)), u.vars[t][op.In[0]], u.vars[t][op.In[1]], false)
	case cell.XNOR2:
		u.encodeXor(u.out(t, netlist.NetID(op.Out)), u.vars[t][op.In[0]], u.vars[t][op.In[1]], true)
	case cell.MUX2:
		u.encodeMux(u.out(t, netlist.NetID(op.Out)), u.vars[t][op.In[0]], u.vars[t][op.In[1]], u.vars[t][op.In[2]])
	case cell.AOI21:
		// y = !((a&b)|c): tmp = a&b; y = !(tmp|c).
		tmp := u.s.NewVar()
		u.encodeAnd(tmp, u.vars[t][op.In[0]], u.vars[t][op.In[1]], false)
		u.encodeOr(u.out(t, netlist.NetID(op.Out)), tmp, u.vars[t][op.In[2]], true)
	case cell.OAI21:
		tmp := u.s.NewVar()
		u.encodeOr(tmp, u.vars[t][op.In[0]], u.vars[t][op.In[1]], false)
		u.encodeAnd(u.out(t, netlist.NetID(op.Out)), tmp, u.vars[t][op.In[2]], true)
	default:
		panic("bmc: cannot encode " + op.Kind.String())
	}
}

// encodeAnd emits y = a&b (or y = !(a&b) when neg). With MkLit(v, true)
// denoting ¬v, AND is (y ∨ ¬a ∨ ¬b)(¬y ∨ a)(¬y ∨ b); neg flips y's
// polarity throughout.
func (u *unroller) encodeAnd(y, a, b int, neg bool) {
	s := u.s
	s.AddClause(sat.MkLit(y, neg), sat.MkLit(a, true), sat.MkLit(b, true))
	s.AddClause(sat.MkLit(y, !neg), sat.MkLit(a, false))
	s.AddClause(sat.MkLit(y, !neg), sat.MkLit(b, false))
}

// encodeOr emits y = a|b (or the negation): (¬y ∨ a ∨ b)(y ∨ ¬a)(y ∨ ¬b).
func (u *unroller) encodeOr(y, a, b int, neg bool) {
	s := u.s
	s.AddClause(sat.MkLit(y, !neg), sat.MkLit(a, false), sat.MkLit(b, false))
	s.AddClause(sat.MkLit(y, neg), sat.MkLit(a, true))
	s.AddClause(sat.MkLit(y, neg), sat.MkLit(b, true))
}

// encodeXor emits y = a^b (or xnor when neg):
// (¬y ∨ a ∨ b)(¬y ∨ ¬a ∨ ¬b)(y ∨ ¬a ∨ b)(y ∨ a ∨ ¬b).
func (u *unroller) encodeXor(y, a, b int, neg bool) {
	s := u.s
	s.AddClause(sat.MkLit(y, !neg), sat.MkLit(a, false), sat.MkLit(b, false))
	s.AddClause(sat.MkLit(y, !neg), sat.MkLit(a, true), sat.MkLit(b, true))
	s.AddClause(sat.MkLit(y, neg), sat.MkLit(a, true), sat.MkLit(b, false))
	s.AddClause(sat.MkLit(y, neg), sat.MkLit(a, false), sat.MkLit(b, true))
}

// encodeMux emits y = s ? b : a:
// (¬s ∨ ¬b ∨ y)(¬s ∨ b ∨ ¬y)(s ∨ ¬a ∨ y)(s ∨ a ∨ ¬y).
func (u *unroller) encodeMux(y, a, b, sel int) {
	s := u.s
	s.AddClause(sat.MkLit(sel, true), sat.MkLit(b, true), sat.MkLit(y, false))
	s.AddClause(sat.MkLit(sel, true), sat.MkLit(b, false), sat.MkLit(y, true))
	s.AddClause(sat.MkLit(sel, false), sat.MkLit(a, true), sat.MkLit(y, false))
	s.AddClause(sat.MkLit(sel, false), sat.MkLit(a, false), sat.MkLit(y, true))
}

// validNets resolves the observability handshake: the original and
// shadow-machine valid bits (equal when the handshake is outside the
// fault cone), or NoNet when no ValidPort is configured.
func (u *unroller) validNets(covers []fault.CoverPoint) (validOrig, validShadow netlist.NetID) {
	validOrig, validShadow = netlist.NoNet, netlist.NoNet
	if u.cfg.ValidPort == "" {
		return
	}
	p, ok := u.nl.FindOutput(u.cfg.ValidPort)
	if !ok || len(p.Bits) != 1 {
		panic(fmt.Sprintf("bmc: ValidPort %q is not a 1-bit output", u.cfg.ValidPort))
	}
	validOrig, validShadow = p.Bits[0], p.Bits[0]
	for _, cp := range covers {
		if cp.Orig == validOrig {
			validShadow = cp.Shadow
		}
	}
	return
}

// coverTargets builds the observable-divergence literals of one cycle:
// for each cover point an XOR of original and shadow bit, gated by the
// shadow machine's handshake when one is configured.
func (u *unroller) coverTargets(covers []fault.CoverPoint, t int) []sat.Lit {
	validOrig, validShadow := u.validNets(covers)
	var targets []sat.Lit
	for _, cp := range covers {
		d := u.s.NewVar()
		u.encodeXor(d, u.vars[t][cp.Orig], u.vars[t][cp.Shadow], false)
		if validOrig == netlist.NoNet || cp.Orig == validOrig {
			targets = append(targets, sat.MkLit(d, false))
			continue
		}
		// obs = d & valid_s
		obs := u.s.NewVar()
		u.encodeAnd(obs, d, u.vars[t][validShadow], false)
		targets = append(targets, sat.MkLit(obs, false))
	}
	return targets
}

// solveWindow asks whether any cover point diverges in cycle t.
// The window's disjunction is guarded by a fresh activation literal and
// asserted as an assumption, so an UNSAT answer refutes only the window:
// the guard is then retired by adding its negation as a unit clause
// (permanently satisfying the guarded clause, and root-simplifying any
// learnt clause that mentions it), while every learnt clause — which the
// solver derives from the formula alone, never from assumptions — keeps
// pruning all deeper windows.
func (u *unroller) solveWindow(covers []fault.CoverPoint, t int) sat.Status {
	act := u.s.NewVar()
	u.s.AddClause(append([]sat.Lit{sat.MkLit(act, true)}, u.coverTargets(covers, t)...)...)
	st := u.solveBudgeted(sat.MkLit(act, false))
	if st == sat.Unsat {
		u.s.AddClause(sat.MkLit(act, true))
	}
	return st
}

// solveBudgeted issues one Solve call against the remaining shared
// conflict budget and charges what the call consumed.
func (u *unroller) solveBudgeted(assumptions ...sat.Lit) sat.Status {
	if u.budget <= 0 {
		return sat.Unknown
	}
	u.s.MaxConflicts = u.budget
	before := u.s.Conflicts
	st := u.s.Solve(assumptions...)
	u.budget -= u.s.Conflicts - before
	u.solves++
	return st
}

func (u *unroller) stats() Stats {
	return Stats{Solves: u.solves, Vars: u.s.NumVars(), Clauses: u.s.NumClauses(), Solver: u.s.Stats()}
}

// extract reads the model back into a Trace, truncated to the earliest
// diverging cycle: cycles past the cover add nothing to the replay and
// would only lengthen the lifted instruction sequence.
func (u *unroller) extract(covers []fault.CoverPoint) *Trace {
	depth := len(u.vars)
	tr := &Trace{Inputs: make(map[string][]uint64), CoverCycle: -1}
	validOrig, validShadow := u.validNets(covers)
	for t := 0; t < depth && tr.CoverCycle == -1; t++ {
		for _, cp := range covers {
			if u.s.Value(u.vars[t][cp.Orig]) == u.s.Value(u.vars[t][cp.Shadow]) {
				continue
			}
			if validOrig != netlist.NoNet && cp.Orig != validOrig && !u.s.Value(u.vars[t][validShadow]) {
				continue // divergence the software never observes
			}
			tr.CoverCycle = t
			tr.CoverPoint = cp
			break
		}
	}
	tr.Cycles = tr.CoverCycle + 1
	if tr.CoverCycle == -1 {
		tr.Cycles = depth // defensive: a Sat model must diverge somewhere
	}
	for _, p := range u.nl.Inputs {
		vals := make([]uint64, tr.Cycles)
		for t := 0; t < tr.Cycles; t++ {
			var v uint64
			for i, n := range p.Bits {
				if u.s.Value(u.vars[t][n]) {
					v |= 1 << uint(i)
				}
			}
			vals[t] = v
		}
		tr.Inputs[p.Name] = vals
	}
	return tr
}

package inject

import (
	"context"
	"fmt"
	"iter"
	"math/bits"

	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/module"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// This file is the packed campaign path: classic concurrent fault
// simulation over the execution-unit seam. Up to 63 netlist-class
// injections (stuck-at, multi-fault) share ONE gate-level run — the
// engine's 64-lane FaultedPacked evaluator carries the golden circuit
// in lane 0 and one failure model per other lane — instead of 63
// full scalar golden-vs-faulty replays. The protocol per wave:
//
//  1. Replay the golden run's unit-op trace on the packed evaluator with
//     module.Driver.Exec's exact present/wait protocol. No CPU runs: the
//     image is deterministic, so while lane 0 answers as the trace says,
//     the next op the image would present is the trace's next. Lane 0's
//     responses are cross-checked against the trace, the behavioural
//     golden model's, every op; any disagreement voids the wave, and a
//     voided wave is an error — a screening engine whose gate-level
//     golden lane contradicts its own model says so.
//  2. A fault lane retires at its first physically divergent response:
//     out_valid high early, a different result/flags word bit, or
//     out_valid still low when the golden lane's result rose. It is
//     held from that check's settle on (engine.FaultedPacked.Hold): no
//     later edge clocks it and no later op is offered to it, so its
//     state nets, inputs included, its history registers and its LFSR
//     stay where it diverged, and a settle shows its out_valid and
//     response again. Lanes the wave does not use are held from the
//     start.
//  3. After the wave, its retired lanes finish as one gang on the wave's
//     own evaluator, one CPU per lane, each a coroutine. A lane's CPU
//     gets golden responses before the divergence op (the lane was
//     bit-identical to golden until then); at that op it resumes its
//     wait loop at the check that held it, and from there on the gate
//     level answers: every lane waiting on a unit op is clocked in
//     lockstep, one settle and edge for all of them, while the others
//     are held, so each lane sees exactly the cycles a lone replay of it
//     would — byte-identical, by construction and by the
//     TestPackedMatchesScalar differential, to a scalar replay of the
//     failing netlist. Lane 0 is held throughout, so a recording wave's
//     recording ends with its replay.
//  4. A lane that never retires ran the whole image without any
//     observable difference: classified Masked for free.
//  5. Every wave replays the same golden trace, so the first wave of a
//     Run that a later batch's wave will follow records its lane 0
//     (engine.Recording): at each unit op's start the golden state bits,
//     setup-history bits and LFSR, and at each clock edge every
//     flip-flop's Q, D and clock bit. A later wave skips op k when every
//     live lane is golden at its start and no site of a live lane
//     corrupts at any recorded edge of it (FaultedPacked.Quiet): the
//     trace answers the op, with no settle and no edge. The first op it
//     simulates after a skip restores every unheld lane to the golden
//     state at its start, then runs as above, lane 0 still
//     cross-checked.
//
// Behavioural classes (transient, intermittent) are not packed — they
// already run at behavioural speed — but get a shortcut: a flip whose
// firing op lies beyond the golden run's unit-op count can never fire,
// so the injection is Masked without a replay.

// goldenInfo caches what every injection is compared against: the
// golden run's state digest, cycle count, and unit-op trace.
type goldenInfo struct {
	digest uint64
	cycles uint64
	// trace is every unit op the golden run executes, in order: what a
	// wave presents, and what lane 0 must answer.
	trace []unitOp
}

// unitOp is one unit op of the golden run: the request and the golden
// model's response.
type unitOp struct{ op, a, b, r, f uint32 }

// tracing is the golden model appending each operation it answers to a
// trace — behaviourally identical to the nil backend.
type tracing struct {
	golden module.GoldenFunc
	trace  *[]unitOp
}

func (t tracing) Exec(op, a, b uint32) (uint32, uint32, bool) {
	r, f := t.golden(op, a, b)
	*t.trace = append(*t.trace, unitOp{op, a, b, r, f})
	return r, f, true
}

// goldenRun executes the fault-free image and captures the oracle. When
// guards are configured it also runs them over the golden execution and
// fails the campaign if any fires: a guard that flags a fault-free run
// violates the zero-false-positive contract, and every downstream
// Escape-to-Detected reclassification would be meaningless. Guards call
// the unit once per op, so the trace is the same with them as without.
func goldenRun(cfg *Config) (*goldenInfo, error) {
	g := &goldenInfo{}
	c := cpu.Recycled(cfg.MemSize)
	defer c.Release()
	*c.Unit(cfg.Module.Name) = tracing{cfg.Module.Golden, &g.trace}
	log := attachGuards(cfg, c)
	c.Load(cfg.Image)
	if halt := c.Run(cfg.MaxCycles); halt != cpu.HaltExit || c.ExitCode != 0 {
		return nil, fmt.Errorf("inject: golden run failed (halt=%v exit=%d)", halt, c.ExitCode)
	}
	if log != nil && log.Fired() {
		return nil, fmt.Errorf("inject: guard %s fired on the fault-free golden run (op %d of %d) — "+
			"false positive, refusing to classify with it", log.First, log.FirstOp, log.Ops)
	}
	g.digest = c.Digest()
	g.cycles = c.Cycles
	return g, nil
}

// diverge records the first unit operation whose response (result,
// flags, ok) differs from the golden model — the divergence-cycle
// oracle. Behavioural replays, packed continuations and the scalar
// oracle share this wrapper, so all report identical DivergedAt values.
type diverge struct {
	inner  module.Unit
	golden module.GoldenFunc
	c      *cpu.CPU
	at     uint64
	hit    bool
}

func (d *diverge) Exec(op, a, b uint32) (uint32, uint32, bool) {
	r, f, ok := d.inner.Exec(op, a, b)
	if !d.hit {
		gr, gf := d.golden(op, a, b)
		if !ok || r != gr || f != gf {
			d.hit = true
			d.at = d.c.Cycles
		}
	}
	return r, f, ok
}

// track wraps the backend installed on c for m's unit with the
// divergence recorder.
func track(m *module.Module, c *cpu.CPU) *diverge {
	u := c.Unit(m.Name)
	d := &diverge{inner: *u, golden: m.Golden, c: c}
	*u = d
	return d
}

// overlayFor translates one fault site into the engine's lane-masked
// overlay form (the engine cannot import internal/fault).
func overlayFor(f fault.Spec, lanes uint64) engine.Overlay {
	o := engine.Overlay{
		Lanes: lanes,
		Start: f.Start,
		End:   f.End,
		C:     engine.OverlayC(f.C),
		Edge:  engine.OverlayEdge(f.Edge),
	}
	if f.Type == sta.Hold {
		o.Check = engine.OverlayHold
	}
	return o
}

// retirement is one retired lane and the check it diverged at. The
// lane is held at that check's settle, before its clock edge: exactly
// the state a scalar driver holds when its wait-loop check runs, so a
// settle of the held lane reproduces the check's out_valid and response.
type retirement struct {
	lane int // wave lane (1..63)
	op   int // 0-based unit-op index of the physical divergence
	wait int // driver wait-loop index of the check that retired the lane
}

// unitPorts are the unit's output nets: out_valid and the result and
// flags buses.
type unitPorts struct {
	ovNet   netlist.NetID
	resBits netlist.Bus
	flgBits netlist.Bus
}

func portsOf(nl *netlist.Netlist) unitPorts {
	ov, _ := nl.FindOutput(module.PortOutValid)
	res, _ := nl.FindOutput(module.PortResult)
	flg, _ := nl.FindOutput(module.PortFlags)
	return unitPorts{ov.Bits[0], res.Bits, flg.Bits}
}

// laneValues reads one lane's settled result and flags.
func (p *unitPorts) laneValues(pe *engine.FaultedPacked, lane int) (r, f uint32) {
	for i, n := range p.resBits {
		if pe.Lane(n, lane) {
			r |= 1 << uint(i)
		}
	}
	for i, n := range p.flgBits {
		if pe.Lane(n, lane) {
			f |= 1 << uint(i)
		}
	}
	return r, f
}

// offer drives one operation into the lanes of mask as
// module.Driver.Exec presents it: the operands with in_valid high. The
// caller clocks one cycle, then drops in_valid.
func offer(pe *engine.FaultedPacked, mask uint64, op, a, b uint32) {
	pe.SetInputLanes(module.PortInValid, mask, 1)
	pe.SetInputLanes(module.PortOp, mask, uint64(op))
	pe.SetInputLanes(module.PortA, mask, uint64(a))
	pe.SetInputLanes(module.PortB, mask, uint64(b))
}

// packedBackend replays the golden trace over a FaultedPacked evaluator
// for one wave. Lane 0 recomputes the golden run (verified against the
// trace op by op); fault lanes retire at their first divergent response.
type packedBackend struct {
	name string // unit, class and injection range, for errors
	m    *module.Module
	pe   *engine.FaultedPacked
	unitPorts

	// live is the fault lanes still bit-identical to lane 0; every other
	// lane but lane 0 is held.
	live uint64
	rets []*retirement
	// rec, when set, is the recording of this wave's golden run that the
	// campaign's later waves skip with; from, when set, is an earlier
	// wave's.
	rec, from *engine.Recording
	// stale: the last op was skipped, so the evaluator still holds the
	// state at the start of the span.
	stale             bool
	skipped, restores int
}

// exec presents golden unit op k, u, to every unheld lane as
// module.Driver.Exec does, unless it is quiet, and retires the lanes
// that answer it otherwise than lane 0. It fails when lane 0 does not
// answer u's response.
func (b *packedBackend) exec(k int, u unitOp) error {
	if b.from != nil && b.quiet(k) {
		return nil
	}
	pe := b.pe
	if b.rec != nil {
		pe.Mark()
	}
	offer(pe, b.live|1, u.op, u.a, u.b)
	pe.Step()
	pe.SetInputLanes(module.PortInValid, b.live|1, 0)
	// The wait loop mirrors module.Driver.Exec: check the settled
	// out_valid, step on miss, for Latency+StallLimit iterations.
	bound := b.m.Latency + module.StallLimit
	for i := 0; i < bound; i++ {
		pe.Settle()
		ov := pe.Word(b.ovNet)
		if ov&1 == 1 {
			r0, f0, mism := b.readOutputs()
			if r0 != u.r || f0 != u.f {
				return fmt.Errorf("unit op %d (op=%d a=%#08x b=%#08x): golden model result=%#08x flags=%#x, "+
					"gate-level lane 0 result=%#08x flags=%#x", k, u.op, u.a, u.b, u.r, u.f, r0, f0)
			}
			// Live lanes with out_valid still low diverge by timing,
			// those with a different result/flags bit by value.
			b.retire((^ov|mism)&b.live, k, i)
			return nil
		}
		// Lanes whose out_valid rose before the golden lane's diverge
		// by timing.
		b.retire(ov&b.live, k, i)
		pe.Edge()
	}
	return fmt.Errorf("unit op %d (op=%d a=%#08x b=%#08x): golden model result=%#08x flags=%#x, "+
		"gate-level lane 0 never raised out_valid within %d cycles", k, u.op, u.a, u.b, u.r, u.f, bound)
}

// quiet reports whether the wave skips unit op k, by the recording: every
// live lane is golden at the op's start and none of their sites corrupts
// at any of its edges, so no lane can leave golden in it. The first op
// simulated after a skipped one starts with every lane restored to the
// golden state at its start.
func (b *packedBackend) quiet(k int) bool {
	pe := b.pe
	if pe.Quiet(b.from, k) && (b.stale || pe.Golden()) {
		b.stale = true
		b.skipped++
		return true
	}
	if b.stale {
		pe.Restore(b.from, k)
		b.stale = false
		b.restores++
	}
	return false
}

// readOutputs extracts lane 0's result and flags and accumulates a
// which-lanes-differ mask: for each output bit net, a lane's bit is set
// in mism iff it differs from lane 0's bit.
func (b *packedBackend) readOutputs() (r0, f0 uint32, mism uint64) {
	for i, n := range b.resBits {
		w := b.pe.Word(n)
		bit := w & 1
		r0 |= uint32(bit) << uint(i)
		mism |= w ^ (0 - bit)
	}
	for i, n := range b.flgBits {
		w := b.pe.Word(n)
		bit := w & 1
		f0 |= uint32(bit) << uint(i)
		mism |= w ^ (0 - bit)
	}
	return r0, f0, mism
}

// retire records the lanes of mask, which diverged at unit op k in
// wait-loop iteration i, and holds them where they are for their gang.
func (b *packedBackend) retire(mask uint64, k, i int) {
	for m := mask; m != 0; m &= m - 1 {
		b.rets = append(b.rets, &retirement{lane: bits.TrailingZeros64(m), op: k, wait: i})
	}
	b.live &^= mask
	b.pe.Hold(^(b.live | 1))
}

// gang runs the continuations of a wave's retired lanes on the wave's
// evaluator, each lane from where the wave held it. Each lane's CPU is a
// coroutine that runs until its unit needs the gate level; the gang then
// steps every lane so waiting in lockstep, one settle and one edge per
// step, and holds the others, so a lane's flip-flops advance only on its
// own cycles.
type gang struct {
	m  *module.Module
	pe *engine.FaultedPacked
	unitPorts
	lanes [engine.Lanes]*gangLane
	// active is the lanes the next step clocks: each is presenting an op
	// or in its wait loop.
	active       uint64
	ops, settles int
}

// gangLane is one retired lane's unit backend: golden responses before
// the divergence op, then the gang's gate level: at the divergence op
// from the check that held the lane, at every later op from its
// present.
type gangLane struct {
	g    *gang
	ret  *retirement
	bit  uint64
	n    int    // unit ops the lane's CPU has asked for
	i    int    // wait-loop iteration of the op in flight
	edge bool   // the next step clocks the lane without a check
	r, f uint32 // the response, once the lane has one
	ok   bool

	yield func(struct{}) bool // hands control back to the gang
	next  func() (struct{}, bool)
}

// Exec implements module.Unit.
func (l *gangLane) Exec(op, a, bb uint32) (uint32, uint32, bool) {
	n := l.n
	l.n++
	switch {
	case n < l.ret.op:
		return l.g.m.Golden.Exec(op, a, bb)
	case n > l.ret.op:
		// Driver.Exec's present: the operands for one clocked cycle,
		// then the wait loop from its first check.
		offer(l.g.pe, l.bit, op, a, bb)
		l.edge, l.i = true, 0
	default:
		// The lane is held at the settle of the check that retired it:
		// the gang's next step makes that check again.
		l.i = l.ret.wait
	}
	l.g.active |= l.bit
	l.g.ops++
	if !l.yield(struct{}{}) {
		return 0, 0, false
	}
	return l.r, l.f, l.ok
}

// run steps the gang until no lane's CPU waits on it. One step is
// module.Driver.Exec's loop body for every active lane at once: settle;
// a lane in its wait loop with out_valid high has its response and is
// held at the edge; every other active lane is clocked, and one whose
// loop ran out has stalled. Lanes with a response then run on, each
// until it asks the gang for a unit op or its run ends.
func (g *gang) run() {
	bound := g.m.Latency + module.StallLimit
	for _, l := range g.lanes {
		if l != nil {
			l.next()
		}
	}
	pe := g.pe
	for g.active != 0 {
		pe.Settle()
		g.settles++
		var answered, edged uint64
		for m := g.active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			l := g.lanes[lane]
			switch {
			case l.edge:
				edged |= l.bit
			case pe.Lane(g.ovNet, lane):
				l.r, l.f = g.laneValues(pe, lane)
				l.ok = true
				answered |= l.bit
			}
		}
		pe.Hold(^g.active | answered)
		pe.Edge()
		if edged != 0 {
			pe.SetInputLanes(module.PortInValid, edged, 0)
		}
		for m := g.active &^ answered; m != 0; m &= m - 1 {
			l := g.lanes[bits.TrailingZeros64(m)]
			if l.edge {
				l.edge = false
			} else {
				l.i++
			}
			if l.i >= bound {
				l.r, l.f, l.ok = 0, 0, false
				answered |= l.bit
			}
		}
		g.active &^= answered
		for m := answered; m != 0; m &= m - 1 {
			g.lanes[bits.TrailingZeros64(m)].next()
		}
	}
}

// runGang classifies every retired lane of wave pb, the injection of
// lane i+1 being idxs[i], by running the image on one CPU per lane over
// one gang on the wave's evaluator. done[i]=false means ctx interrupted
// lane i+1's run: the injection stays pending.
func runGang(ctx context.Context, cfg *Config, g *goldenInfo, idxs []int, pb *packedBackend, results []Result, done []bool) (ops, settles int) {
	gg := &gang{m: cfg.Module, pe: pb.pe, unitPorts: pb.unitPorts}
	for _, ret := range pb.rets {
		l := &gangLane{g: gg, ret: ret, bit: 1 << uint(ret.lane)}
		i := ret.lane - 1
		next, stop := iter.Pull(func(yield func(struct{}) bool) {
			l.yield = yield
			c := cpu.Recycled(cfg.MemSize)
			defer c.Release()
			*c.Unit(cfg.Module.Name) = l
			results[i], done[i] = runAttached(ctx, cfg, idxs[i], g, c)
		})
		defer stop()
		l.next = next
		gg.lanes[ret.lane] = l
	}
	gg.run()
	return gg.ops, gg.settles
}

// newWave compiles a wave of up to engine.Lanes-1 netlist-class
// injections, injection idxs[i] in lane i+1, onto a fresh evaluator
// that holds every lane the wave does not use. The wave skips quiet ops
// with recording from when it is set, and records its golden lane into
// a recording of its own when record is set.
func newWave(cfg *Config, idxs []int, from *engine.Recording, record bool) (*packedBackend, error) {
	name := fmt.Sprintf("%s %s wave (injections %d..%d)", cfg.Module.Name, cfg.Specs[idxs[0]].Class, idxs[0], idxs[len(idxs)-1])
	var overlays []engine.Overlay
	for i, idx := range idxs {
		for _, f := range cfg.Specs[idx].Faults {
			overlays = append(overlays, overlayFor(f, uint64(1)<<uint(i+1)))
		}
	}
	fp, err := engine.CompileFaulted(engine.Cached(cfg.Module.Netlist), overlays)
	if err != nil {
		return nil, fmt.Errorf("inject: %s: %w", name, err)
	}
	pb := &packedBackend{
		name: name, m: cfg.Module, pe: engine.NewFaultedPacked(fp),
		unitPorts: portsOf(cfg.Module.Netlist),
		live:      (uint64(1)<<uint(len(idxs)+1) - 1) &^ 1,
		from:      from,
	}
	pb.pe.Hold(^(pb.live | 1))
	if record {
		pb.rec = pb.pe.Record()
	}
	return pb, nil
}

// pollOps is how many unit ops a wave replays between context polls:
// the interval at which cpu.CPU.RunCtx polls between instructions.
const pollOps = 4096

// run replays the golden trace on the wave. ok=false means ctx
// interrupted the replay, or lane 0 disagreed with the golden model:
// err then says where, and no lane of the wave is classified, since
// lane comparisons prove nothing.
func (b *packedBackend) run(ctx context.Context, g *goldenInfo) (ok bool, err error) {
	for k, u := range g.trace {
		if k%pollOps == 0 && ctx.Err() != nil {
			return false, nil
		}
		if err := b.exec(k, u); err != nil {
			return false, fmt.Errorf("inject: %s voided at %w", b.name, err)
		}
	}
	return true, nil
}

// unitOut is what one work unit hands back: its results (indexed like
// its idxs; ok[i]=false means injection idxs[i] stays pending), its
// class's stats row, and the recording of the golden run when the unit
// was a wave that recorded one.
type unitOut struct {
	rs   []Result
	ok   []bool
	acct PackedClassStats
	rec  *engine.Recording
}

// runPackedWave runs one packed wave (newWave) and the continuations of
// its retired lanes.
func runPackedWave(ctx context.Context, cfg *Config, g *goldenInfo, idxs []int, from *engine.Recording, record bool) (unitOut, error) {
	out := unitOut{rs: make([]Result, len(idxs)), ok: make([]bool, len(idxs))}
	pb, err := newWave(cfg, idxs, from, record)
	if err != nil {
		return out, err
	}
	if ok, err := pb.run(ctx, g); !ok {
		return out, err // an interrupted wave stays pending
	}
	results, done, acct := out.rs, out.ok, &out.acct
	out.rec = pb.rec
	acct.Waves = 1
	acct.LanesUsed = len(idxs)
	acct.Retired = len(pb.rets)
	acct.SkippedOps = pb.skipped
	for _, ret := range pb.rets {
		acct.SavedLaneOps += uint64(len(g.trace) - ret.op - 1)
	}
	// Lanes that never retired were bit-identical to the golden lane for
	// the entire replay: Masked, with the golden run's cycles and digest,
	// no replay needed.
	for i, idx := range idxs {
		if pb.live>>uint(i+1)&1 == 1 {
			s := cfg.Specs[idx]
			results[i] = Result{
				Index: idx, Spec: s.String(), Class: s.Class.String(),
				Outcome: Masked.String(), Halt: cpu.HaltExit.String(),
				Cycles: g.cycles, Digest: g.digest,
			}
			done[i] = true
			acct.MaskedInWave++
		}
	}
	acct.GangOps, acct.GangSettles = runGang(ctx, cfg, g, idxs, pb, results, done)
	return out, nil
}

// flipFires reports whether a behavioural injection's flip condition
// fires within the golden run's unit-op count. A flip that never fires
// leaves the run bit-identical to golden.
func flipFires(s Spec, ops uint64) bool {
	switch s.Class {
	case Transient:
		return uint64(s.OpIndex) < ops
	case Intermittent:
		l := lfsr16(s.Seed)
		p := uint32(s.Period)
		for i := uint64(0); i < ops; i++ {
			if uint32(l.step())%p == 0 {
				return true
			}
		}
		return false
	}
	return true
}

// runBehavioural classifies one behavioural-class injection: Masked for
// free when the flip cannot fire within the golden run, a full replay
// otherwise. replayed=false marks the shortcut.
func runBehavioural(ctx context.Context, cfg *Config, g *goldenInfo, idx int) (r Result, ok, replayed bool, err error) {
	s := cfg.Specs[idx]
	if !flipFires(s, uint64(len(g.trace))) {
		return Result{
			Index: idx, Spec: s.String(), Class: s.Class.String(),
			Outcome: Masked.String(), Halt: cpu.HaltExit.String(),
			Cycles: g.cycles, Digest: g.digest,
		}, true, false, nil
	}
	r, ok, err = runOne(ctx, cfg, idx, g)
	return r, ok, true, err
}

// PackedClassStats is one fault class's packed-path accounting.
type PackedClassStats struct {
	Class string

	// Netlist classes (stuck, multi): wave packing and retirement.
	Waves        int    // packed waves run
	LaneSlots    int    // Waves x 63 — available fault lanes
	LanesUsed    int    // injections carried in those lanes
	Retired      int    // lanes that physically diverged -> continuations
	MaskedInWave int    // lanes classified Masked with no scalar work
	SavedLaneOps uint64 // unit ops not simulated thanks to early retirement
	// GangOps counts the unit ops the retired lanes' gangs ran at gate
	// level, each lane's divergence op (resumed at the check that held
	// it) included, and GangSettles the lockstep steps (one settle each)
	// that served them: the fewer settles per op, the more lanes shared
	// one.
	GangOps     int
	GangSettles int
	// SkippedOps counts the wave unit ops the recording of the
	// campaign's golden run let a wave skip: ops in which no live lane
	// could leave the golden state, so the trace answered them.
	SkippedOps int
	// Fallbacks is always 0: a voided wave is an error, not a replay on a
	// second engine. The field stays because the ledger (internal/bench)
	// reads it.
	Fallbacks int

	// Behavioural classes (transient, intermittent): shortcut accounting.
	Shortcut int // classified Masked analytically (flip cannot fire)
	Replayed int // full behavioural replays
}

// Occupancy is LanesUsed / LaneSlots — how full the packed waves were.
func (s *PackedClassStats) Occupancy() float64 {
	if s.LaneSlots == 0 {
		return 0
	}
	return float64(s.LanesUsed) / float64(s.LaneSlots)
}

// PackedStats reports what the packed campaign path did and skipped,
// per fault universe. It is computed fresh per Run (not persisted in
// checkpoints, so resumed campaigns report only their own work).
type PackedStats struct {
	// GoldenOps is the golden run's unit-operation count — the per-lane
	// cost baseline the savings are measured against.
	GoldenOps uint64
	Classes   []PackedClassStats
}

// Savings is the fraction of retired lanes' unit ops that early
// retirement skipped, over the packed lanes of class stats row s.
func Savings(goldenOps uint64, s *PackedClassStats) float64 {
	total := uint64(s.LanesUsed) * goldenOps
	if total == 0 {
		return 0
	}
	return float64(s.SavedLaneOps) / float64(total)
}

// TotalSavings aggregates Savings over every class: the fraction of
// per-lane unit-op work (LanesUsed x GoldenOps) that wave sharing and
// early retirement avoided replaying.
func (s *PackedStats) TotalSavings() float64 {
	var saved, total uint64
	for i := range s.Classes {
		saved += s.Classes[i].SavedLaneOps
		total += uint64(s.Classes[i].LanesUsed) * s.GoldenOps
	}
	if total == 0 {
		return 0
	}
	return float64(saved) / float64(total)
}

func newPackedStats(g *goldenInfo) *PackedStats {
	ps := &PackedStats{GoldenOps: uint64(len(g.trace))}
	for _, cl := range Classes() {
		ps.Classes = append(ps.Classes, PackedClassStats{Class: cl.String()})
	}
	return ps
}

// merge adds one unit's row a to its class's row (ps.Classes holds one
// row per Class, in Class order).
func (ps *PackedStats) merge(cl Class, a PackedClassStats) {
	s := &ps.Classes[cl]
	s.Waves += a.Waves
	s.LaneSlots = s.Waves * (engine.Lanes - 1)
	s.LanesUsed += a.LanesUsed
	s.Retired += a.Retired
	s.MaskedInWave += a.MaskedInWave
	s.SavedLaneOps += a.SavedLaneOps
	s.GangOps += a.GangOps
	s.GangSettles += a.GangSettles
	s.SkippedOps += a.SkippedOps
	s.Shortcut += a.Shortcut
	s.Replayed += a.Replayed
}

package inject

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/module"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/sta"
)

// This file is the packed campaign path: classic concurrent fault
// simulation over the execution-unit seam. Up to 63 netlist-class
// injections (stuck-at, multi-fault) share ONE gate-level run — the
// engine's 64-lane FaultedPacked evaluator carries the golden circuit
// in lane 0 and one failure model per other lane — instead of 63
// full scalar golden-vs-faulty replays. The protocol per wave:
//
//  1. Run the image once on a CPU whose unit backend drives the packed
//     evaluator with module.Driver.Exec's exact present/wait protocol.
//     Lane 0's responses are cross-checked against the behavioural
//     golden model every op; any disagreement voids the wave, and a
//     voided wave is an error — a screening engine whose gate-level
//     golden lane contradicts its own model says so.
//  2. A fault lane retires at its first physically divergent response:
//     a different result/flags word bit, out_valid high early, or
//     out_valid still low when the golden lane's result rose. At
//     retirement the lane's full netlist state (plus overlay history
//     and LFSR state) is snapshotted.
//  3. A retired lane finishes on a scalar continuation: golden
//     responses up to the divergence op (the lane was bit-identical to
//     golden until then), then a single-lane faulted evaluation seeded
//     from the snapshot — byte-identical, by construction and by the
//     TestPackedMatchesScalar differential, to a scalar replay of the
//     failing netlist.
//  4. A lane that never retires ran the whole image without any
//     observable difference: classified Masked for free.
//
// Behavioural classes (transient, intermittent) are not packed — they
// already run at behavioural speed — but get a shortcut: a flip whose
// firing op lies beyond the golden run's unit-op count can never fire,
// so the injection is Masked without a replay.

// goldenInfo caches what every injection is compared against: the
// golden run's state digest, cycle count, and unit-operation count.
type goldenInfo struct {
	digest uint64
	cycles uint64
	ops    uint64 // unit (backend) operations the golden run executes
}

// counting is the golden model counting its operations — behaviourally
// identical to the nil backend.
type counting struct {
	golden module.GoldenFunc
	n      *uint64
}

func (c counting) Exec(op, a, b uint32) (uint32, uint32, bool) {
	*c.n++
	return c.golden.Exec(op, a, b)
}

// goldenRun executes the fault-free image and captures the oracle. When
// guards are configured it also runs them over the golden execution and
// fails the campaign if any fires: a guard that flags a fault-free run
// violates the zero-false-positive contract, and every downstream
// Escape-to-Detected reclassification would be meaningless.
func goldenRun(cfg *Config) (*goldenInfo, error) {
	g := &goldenInfo{}
	c := cpu.Recycled(cfg.MemSize)
	defer c.Release()
	*c.Unit(cfg.Module.Name) = counting{cfg.Module.Golden, &g.ops}
	log := attachGuards(cfg, c)
	c.Load(cfg.Image)
	if halt := c.Run(cfg.MaxCycles); halt != cpu.HaltExit || c.ExitCode != 0 {
		return nil, fmt.Errorf("inject: golden run failed (halt=%v exit=%d)", halt, c.ExitCode)
	}
	if log != nil && log.Fired() {
		return nil, fmt.Errorf("inject: guard %s fired on the fault-free golden run (op %d of %d) — "+
			"false positive, refusing to classify with it", log.First, log.FirstOp, log.Ops)
	}
	g.digest = digest(c)
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

// retKind says how a lane's physical divergence presented.
type retKind uint8

const (
	// retReturned: out_valid rose with a divergent result/flags value
	// (or rose early) — the response the CPU would have consumed is
	// recorded in the retirement.
	retReturned retKind = iota
	// retWait: out_valid was still low when the golden lane's response
	// rose — the continuation resumes the driver's wait loop.
	retWait
)

// retirement is one retired lane: where it diverged and the full lane
// state snapshot its continuation is seeded from.
type retirement struct {
	lane  int // wave lane (1..63)
	kind  retKind
	op    uint64 // 0-based unit-op index of the physical divergence
	wait  int    // retWait: driver wait-loop index at which golden rose
	r, f  uint32 // retReturned: the lane's response
	snap  []bool // per original net: lane value at the snapshot settle
	hists []bool // per fault site: overlay history-register value
	lfsr  uint16 // shared CRandom LFSR state
}

// packedBackend implements the unit backend over a FaultedPacked
// evaluator for one wave. Lane 0 recomputes the golden run (verified
// against the behavioural model op by op); fault lanes retire at their
// first divergent response.
type packedBackend struct {
	m      *module.Module
	pe     *engine.FaultedPacked
	siteLo []int // per lane: first overlay site index
	siteHi []int // per lane: one past the last overlay site index

	live uint64 // fault lanes still bit-identical to lane 0
	ops  uint64
	rets []*retirement
	// void is set when lane 0 disagreed with the behavioural model: lane
	// comparisons then prove nothing and the wave fails with this error.
	void error

	ovNet   netlist.NetID
	resBits netlist.Bus
	flgBits netlist.Bus
}

// Exec implements module.Unit.
func (b *packedBackend) Exec(op, a, bb uint32) (uint32, uint32, bool) {
	gr, gf := b.m.Golden(op, a, bb)
	k := b.ops
	b.ops++
	pe := b.pe
	pe.SetInput(module.PortInValid, 1)
	pe.SetInput(module.PortOp, uint64(op))
	pe.SetInput(module.PortA, uint64(a))
	pe.SetInput(module.PortB, uint64(bb))
	pe.Step()
	pe.SetInput(module.PortInValid, 0)
	// The wait loop mirrors module.Driver.Exec: check the settled
	// out_valid, step on miss, for Latency+StallLimit iterations.
	i0 := -1
	bound := b.m.Latency + module.StallLimit
	for i := 0; i < bound; i++ {
		pe.Settle()
		ov := pe.Word(b.ovNet)
		if ov&1 == 1 {
			i0 = i
			break
		}
		// Lanes whose out_valid rose before the golden lane's diverge
		// by timing; their (early) response is what Exec would return.
		if early := ov & b.live; early != 0 {
			b.retireValues(early, k)
		}
		pe.Edge()
	}
	if i0 < 0 {
		// ok=false stalls the CPU, which ends the voided wave's run here.
		b.void = fmt.Errorf("unit op %d (op=%d a=%#08x b=%#08x): golden model result=%#08x flags=%#x, "+
			"gate-level lane 0 never raised out_valid within %d cycles", k, op, a, bb, gr, gf, bound)
		return 0, 0, false
	}
	r0, f0, mism := b.readOutputs()
	if r0 != gr || f0 != gf {
		b.void = fmt.Errorf("unit op %d (op=%d a=%#08x b=%#08x): golden model result=%#08x flags=%#x, "+
			"gate-level lane 0 result=%#08x flags=%#x", k, op, a, bb, gr, gf, r0, f0)
		return 0, 0, false
	}
	if late := ^pe.Word(b.ovNet) & b.live; late != 0 {
		b.retireWait(late, k, i0)
	}
	// After the late lanes retired, every live lane has out_valid high;
	// those with a mismatching result/flags bit diverge by value.
	if val := mism & b.live; val != 0 {
		b.retireValues(val, k)
	}
	return r0, f0, true
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

func (b *packedBackend) retireValues(mask uint64, k uint64) {
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		var r, f uint32
		for i, n := range b.resBits {
			if b.pe.Lane(n, lane) {
				r |= 1 << uint(i)
			}
		}
		for i, n := range b.flgBits {
			if b.pe.Lane(n, lane) {
				f |= 1 << uint(i)
			}
		}
		b.rets = append(b.rets, b.snapshot(lane, retReturned, k, 0, r, f))
	}
	b.live &^= mask
	b.pe.Retire(mask)
}

func (b *packedBackend) retireWait(mask uint64, k uint64, i0 int) {
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		b.rets = append(b.rets, b.snapshot(lane, retWait, k, i0, 0, 0))
	}
	b.live &^= mask
	b.pe.Retire(mask)
}

// snapshot captures a retiring lane at the current settled state:
// original-net values, overlay history registers, LFSR. The snapshot is
// taken before the clock edge of the check iteration — exactly the
// state a scalar driver holds when its wait-loop check runs.
func (b *packedBackend) snapshot(lane int, kind retKind, k uint64, i0 int, r, f uint32) *retirement {
	ret := &retirement{
		lane: lane, kind: kind, op: k, wait: i0, r: r, f: f,
		snap: make([]bool, b.m.Netlist.NumNets),
		lfsr: b.pe.LFSR(),
	}
	b.pe.ExtractLane(lane, ret.snap)
	lo, hi := b.siteLo[lane], b.siteHi[lane]
	ret.hists = make([]bool, hi-lo)
	for si := lo; si < hi; si++ {
		ret.hists[si-lo] = b.pe.HistLane(si, lane)
	}
	return ret
}

// faultLane is the lane a continuation's single failure model runs in
// (lane 0 is reserved for the golden circuit).
const faultLane = 1

// resumeBackend finishes one retired lane: golden responses up to the
// divergence op (the lane was bit-identical to the golden circuit until
// then), the recorded divergent response (or the rest of the wait loop)
// at the divergence op, then a single-lane faulted evaluation seeded
// from the snapshot for every later op. Running the suffix on a
// FaultedPacked — rather than a freshly instrumented failing netlist —
// reuses the module's cached compiled Program: a continuation costs
// only its overlay compilation, not a netlist build plus engine
// compile per retired lane.
type resumeBackend struct {
	m    *module.Module
	spec Spec
	ret  *retirement
	n    uint64
	err  error

	pe      *engine.FaultedPacked
	ovNet   netlist.NetID
	resBits netlist.Bus
	flgBits netlist.Bus
}

// Exec implements module.Unit.
func (b *resumeBackend) Exec(op, a, bb uint32) (uint32, uint32, bool) {
	n := b.n
	b.n++
	if n < b.ret.op {
		return b.m.Golden.Exec(op, a, bb)
	}
	if n == b.ret.op {
		if err := b.seed(); err != nil {
			b.err = err
			return 0, 0, false
		}
		if b.ret.kind == retReturned {
			return b.ret.r, b.ret.f, true
		}
		// retWait: the packed check at iteration `wait` saw this lane's
		// out_valid still low. Resume Driver.Exec's wait loop from the
		// next iteration: the Step of the failed check first, then
		// check-step until the response rises or the stall bound hits.
		b.pe.Step()
		for i := b.ret.wait + 1; i < b.m.Latency+module.StallLimit; i++ {
			b.pe.Settle()
			if r, f, ok := b.read(); ok {
				return r, f, true
			}
			b.pe.Edge()
		}
		return 0, 0, false
	}
	return b.execFaulted(op, a, bb)
}

// execFaulted mirrors module.Driver.Exec over the seeded evaluator.
func (b *resumeBackend) execFaulted(op, a, bb uint32) (uint32, uint32, bool) {
	pe := b.pe
	pe.SetInput(module.PortInValid, 1)
	pe.SetInput(module.PortOp, uint64(op))
	pe.SetInput(module.PortA, uint64(a))
	pe.SetInput(module.PortB, uint64(bb))
	pe.Step()
	pe.SetInput(module.PortInValid, 0)
	for i := 0; i < b.m.Latency+module.StallLimit; i++ {
		pe.Settle()
		if r, f, ok := b.read(); ok {
			return r, f, true
		}
		pe.Edge()
	}
	return 0, 0, false
}

// read returns the fault lane's settled response, ok=false while
// out_valid is low.
func (b *resumeBackend) read() (uint32, uint32, bool) {
	if !b.pe.Lane(b.ovNet, faultLane) {
		return 0, 0, false
	}
	var r, f uint32
	for i, n := range b.resBits {
		if b.pe.Lane(n, faultLane) {
			r |= 1 << uint(i)
		}
	}
	for i, n := range b.flgBits {
		if b.pe.Lane(n, faultLane) {
			f |= 1 << uint(i)
		}
	}
	return r, f, true
}

// seed compiles the spec's overlays into a fresh single-lane evaluator
// and forces it into the snapshotted state: every net's value
// broadcast, the overlay history registers (site order matches fault
// order on both sides), and the shared LFSR.
func (b *resumeBackend) seed() error {
	overlays := make([]engine.Overlay, len(b.spec.Faults))
	for i, f := range b.spec.Faults {
		overlays[i] = overlayFor(f, 1<<faultLane)
	}
	fp, err := engine.CompileFaulted(engine.Cached(b.m.Netlist), overlays)
	if err != nil {
		return fmt.Errorf("inject: continuation for %s: %w", b.spec.String(), err)
	}
	pe := engine.NewFaultedPacked(fp)
	for n, v := range b.ret.snap {
		var w uint64
		if v {
			w = ^uint64(0)
		}
		pe.SetWord(netlist.NetID(n), w)
	}
	for si, v := range b.ret.hists {
		var w uint64
		if v {
			w = ^uint64(0)
		}
		pe.SetHist(si, w)
	}
	pe.SetLFSR(b.ret.lfsr)
	b.pe = pe

	nl := b.m.Netlist
	ovPort, _ := nl.FindOutput(module.PortOutValid)
	resPort, _ := nl.FindOutput(module.PortResult)
	flgPort, _ := nl.FindOutput(module.PortFlags)
	b.ovNet = ovPort.Bits[0]
	b.resBits = resPort.Bits
	b.flgBits = flgPort.Bits
	return nil
}

// runContinuation classifies one retired lane by running the image on a
// fresh CPU with the resume backend. ok=false means ctx interrupted the
// run — the injection stays pending.
func runContinuation(ctx context.Context, cfg *Config, g *goldenInfo, idx int, ret *retirement) (Result, bool, error) {
	s := cfg.Specs[idx]
	c := cpu.Recycled(cfg.MemSize)
	defer c.Release()
	rb := &resumeBackend{m: cfg.Module, spec: s, ret: ret}
	*c.Unit(cfg.Module.Name) = rb
	d := track(cfg.Module, c)
	log := attachGuards(cfg, c)
	c.Load(cfg.Image)
	halt := c.RunCtx(ctx, cfg.MaxCycles)
	if halt == cpu.HaltInterrupted {
		return Result{}, false, nil
	}
	if rb.err != nil {
		return Result{}, false, fmt.Errorf("injection %d (%s): %w", idx, s.String(), rb.err)
	}
	return finish(cfg, idx, c, halt, g, d, log), true, nil
}

// waveAcct is one unit's contribution to the campaign's PackedStats.
type waveAcct struct {
	waves, lanesUsed, retired, masked int
	savedOps                          uint64
	behShortcut, behReplayed          int
}

// runPackedWave runs one packed wave of up to engine.Lanes-1
// netlist-class injections. Returned slices are indexed like idxs;
// done[i]=false means injection idxs[i] stays pending (interrupted).
func runPackedWave(ctx context.Context, cfg *Config, g *goldenInfo, idxs []int) ([]Result, []bool, waveAcct, error) {
	results := make([]Result, len(idxs))
	done := make([]bool, len(idxs))
	var acct waveAcct

	var overlays []engine.Overlay
	siteLo := make([]int, len(idxs)+1)
	siteHi := make([]int, len(idxs)+1)
	for i, idx := range idxs {
		lane := i + 1
		siteLo[lane] = len(overlays)
		for _, f := range cfg.Specs[idx].Faults {
			if err := checkSite(cfg.Module, f); err != nil {
				return nil, nil, acct, fmt.Errorf("injection %d (%s): %w", idx, cfg.Specs[idx].String(), err)
			}
			overlays = append(overlays, overlayFor(f, uint64(1)<<uint(lane)))
		}
		siteHi[lane] = len(overlays)
	}
	fp, err := engine.CompileFaulted(engine.Cached(cfg.Module.Netlist), overlays)
	if err != nil {
		return nil, nil, acct, fmt.Errorf("inject: packed wave: %w", err)
	}
	nl := cfg.Module.Netlist
	ovPort, _ := nl.FindOutput(module.PortOutValid)
	resPort, _ := nl.FindOutput(module.PortResult)
	flgPort, _ := nl.FindOutput(module.PortFlags)
	pb := &packedBackend{
		m: cfg.Module, pe: engine.NewFaultedPacked(fp),
		siteLo: siteLo, siteHi: siteHi,
		live:  (uint64(1)<<uint(len(idxs)+1) - 1) &^ 1,
		ovNet: ovPort.Bits[0], resBits: resPort.Bits, flgBits: flgPort.Bits,
	}
	c := cpu.Recycled(cfg.MemSize)
	defer c.Release()
	*c.Unit(cfg.Module.Name) = pb
	c.Load(cfg.Image)
	halt := c.RunCtx(ctx, cfg.MaxCycles)
	if halt == cpu.HaltInterrupted {
		return results, done, acct, nil // whole wave stays pending
	}
	if pb.void == nil && (halt != cpu.HaltExit || c.ExitCode != 0 || digest(c) != g.digest) {
		pb.void = fmt.Errorf("every lane-0 response matched the golden model, yet the run ended halt=%v exit=%d "+
			"with a state digest that differs from the golden run's", halt, c.ExitCode)
	}
	if pb.void != nil {
		// The gate-level golden lane disagreed with the behavioural
		// model, so lane comparisons prove nothing: no lane of this wave
		// is classified.
		return nil, nil, acct, fmt.Errorf("inject: %s %s wave (injections %d..%d) voided at %w",
			cfg.Module.Name, cfg.Specs[idxs[0]].Class, idxs[0], idxs[len(idxs)-1], pb.void)
	}
	acct.waves = 1
	acct.lanesUsed = len(idxs)
	acct.retired = len(pb.rets)
	for _, ret := range pb.rets {
		acct.savedOps += g.ops - (ret.op + 1)
	}
	// Lanes that never retired were bit-identical to the golden lane for
	// the entire run: Masked, with the golden run's cycles and digest,
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
			acct.masked++
		}
	}
	// The retired lanes' continuations are independent replays: fan them
	// out like the waves themselves, each landing in its own lane's slot.
	outs, err := par.Map(ctx, len(pb.rets), cfg.Parallelism, func(ctx context.Context, k int) (taskOut, error) {
		r, ok, err := runContinuation(ctx, cfg, g, idxs[pb.rets[k].lane-1], pb.rets[k])
		return taskOut{r, ok}, err
	})
	for k, o := range outs {
		if o.ok {
			i := pb.rets[k].lane - 1
			results[i], done[i] = o.r, true
		}
	}
	if interrupted(err) {
		err = nil // unfinished lanes stay pending
	}
	return results, done, acct, err
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
	if !flipFires(s, g.ops) {
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
	ps := &PackedStats{GoldenOps: g.ops}
	for _, cl := range Classes() {
		ps.Classes = append(ps.Classes, PackedClassStats{Class: cl.String()})
	}
	return ps
}

func (ps *PackedStats) merge(cl Class, a waveAcct) {
	for i := range ps.Classes {
		if ps.Classes[i].Class != cl.String() {
			continue
		}
		s := &ps.Classes[i]
		s.Waves += a.waves
		s.LaneSlots += a.waves * (engine.Lanes - 1)
		s.LanesUsed += a.lanesUsed
		s.Retired += a.retired
		s.MaskedInWave += a.masked
		s.SavedLaneOps += a.savedOps
		s.Shortcut += a.behShortcut
		s.Replayed += a.behReplayed
	}
}

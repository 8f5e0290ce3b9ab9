package sta

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/aging"
	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/par"
)

// The batched arrays use IEEE infinities as untimed sentinels where the
// scalar oracle (oracle_test.go) uses ±math.MaxFloat64. Adding a finite delay to an IEEE
// infinity saturates, so the propagation and pruning loops need no
// sentinel guards — and no timed lane changes: a timed arrival is the
// same finite sum in the same association order under either sentinel,
// and untimed lanes are only ever tested against the sentinel, never
// reported.
var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// This file is the evaluation half of the batched STA engine: arrival
// times for K aging corners are propagated simultaneously in
// structure-of-arrays form over one CachedGraph traversal, then the
// violating paths are enumerated by an explicit-stack walker — one DFS
// per violating (endpoint, check, corner) — fanned out over a par.Map
// pool and merged deterministically in the scalar analysis's endpoint
// order. The scalar engine this replaced is the test-only oracle in
// oracle_test.go: AnalyzeCorners is required to reproduce its Results
// bit for bit at every corner and Parallelism (TestBatchedMatchesScalar,
// FuzzBatchedVsScalar).

// Corner is one point of a multi-corner analysis: an assumed lifetime
// (Years <= 0 means fresh), at the aging model's operating temperature.
type Corner struct {
	Years float64
}

// BatchConfig parameterizes one multi-corner STA run. PeriodPs, Scale,
// MaxPaths and PerEndpoint mean exactly what they do in Config and apply
// to every corner.
type BatchConfig struct {
	PeriodPs float64
	Scale    float64
	// Base is the nominal library; aged libraries for every corner are
	// derived from it through one aging.NewCornerGrid characterization.
	Base *cell.Library
	// Model is the aging model; required when any corner has Years > 0.
	Model *aging.Model
	// Profile supplies per-net signal probabilities; required when any
	// corner has Years > 0.
	Profile *engine.Profile
	// Libs, when non-nil, supplies the per-corner aged libraries directly
	// and skips the aging.NewCornerGrid characterization (see
	// CornerLibraries); a caller that keeps the whole characterization
	// keeps an Annotation instead, as the fleet daemon does.
	// Must be exactly one entry per corner, nil entries marking fresh
	// corners, and must have been built from the same Base/Model/Profile
	// this config carries or the results are silently wrong.
	Libs        []*aging.Library
	MaxPaths    int
	PerEndpoint int
	// Parallelism bounds the path-enumeration fan-out (0 = all CPUs).
	// Results are byte-identical at every setting.
	Parallelism int
}

// AnalyzeCorners runs the timing analysis at every corner in one batched
// pass and returns one Result per corner, each bit-identical to what
// the scalar oracle produces for that corner alone.
func AnalyzeCorners(nl *netlist.Netlist, cfg BatchConfig, corners []Corner) []*Result {
	a := Annotate(nl, cfg, corners)
	results := a.Analyze()
	putSlab(&gridPool, a.gridSlab) // a is dropped here, and no Result views its grid
	return results
}

// Annotation is a netlist characterized at K corners: its timing graph,
// its corner libraries, their factor grid and every cell's aging factor
// at every corner. The factors depend only on the libraries and each
// cell's SP, so a caller that re-times one netlist under one profile
// (the fleet daemon's warm sweep) keeps the Annotation and pays only for
// Analyze. It is read-only once Annotate returns, so concurrent Analyze
// calls are safe; only an Incremental, which owns its Annotation,
// rewrites factors.
type Annotation struct {
	g     *TimingGraph
	cfg   BatchConfig
	libs  []*aging.Library
	scale float64
	// factor holds K × cells float64s, corner-major; every Result.Factor
	// is a view of one of its columns.
	factor []float64
	// grid[kind] holds the kind's tabulated factors at every corner,
	// corner-contiguous as [point*K + k] over the libraries' points grid
	// points, for the kinds the netlist instantiates; it is nil when
	// every corner is fresh. Its backing store, gridSlab, comes from
	// gridPool. fresh lists the corners with no library.
	grid     [cell.NumKinds][]float64
	gridSlab []float64
	points   int
	fresh    []int
}

// Annotate is the characterization step of an analysis: it compiles (or
// reuses) nl's timing graph, builds the corner libraries (or takes
// cfg.Libs) and writes every cell's aging factor at every corner. With
// no corners there is nothing to annotate, and Analyze returns nil.
func Annotate(nl *netlist.Netlist, cfg BatchConfig, corners []Corner) *Annotation {
	K := len(corners)
	if K == 0 {
		return &Annotation{}
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 1
	}
	g := CachedGraph(nl)
	a := &Annotation{
		g:      g,
		cfg:    cfg,
		libs:   cornerLibs(nl.Name, cfg, corners),
		scale:  scale,
		factor: make([]float64, K*g.numCells),
	}
	a.buildGrid()
	a.interpolate(0, g.numCells)
	return a
}

// Analyze is the analysis step: clock arrivals and propagation over a
// pooled slab, then the endpoint checks and path enumeration. It
// returns one Result per corner, whose Factor is a read-only view of
// the Annotation's column.
func (a *Annotation) Analyze() []*Result {
	if len(a.libs) == 0 {
		return nil
	}
	st := a.evaluate()
	results := a.check(st)
	st.release() // walks are done; Results hold no views into the slab
	return results
}

// evaluate runs the forward half of an analysis into a fresh pooled
// state, which the caller releases.
func (a *Annotation) evaluate() *batchState {
	st := newBatchState(a.g, len(a.libs), a.factor, a.cfg.Base, a.scale)
	st.computeClockArrivals()
	st.propagate()
	return st
}

// CornerLibraries precomputes the per-corner aged libraries that
// AnalyzeCorners would derive internally, for callers that reuse one
// corner grid across many analyses of the same netlist via
// BatchConfig.Libs. The returned slice is read-only and position-matched
// to corners; cfg.Libs itself is ignored here.
func CornerLibraries(name string, cfg BatchConfig, corners []Corner) []*aging.Library {
	cfg.Libs = nil
	return cornerLibs(name, cfg, corners)
}

// cornerLibs derives every corner's aged library through one
// aging.NewCornerGrid characterization (nil entries mark fresh corners),
// or hands back the precomputed cfg.Libs when the caller supplied them.
// Shared by the batched one-shot pass and the incremental engine.
func cornerLibs(name string, cfg BatchConfig, corners []Corner) []*aging.Library {
	if cfg.Libs != nil {
		if len(cfg.Libs) != len(corners) {
			panic(fmt.Sprintf("sta: %s: BatchConfig.Libs has %d entries for %d corners",
				name, len(cfg.Libs), len(corners)))
		}
		return cfg.Libs
	}
	years := make([]float64, len(corners))
	anyAged := false
	for i, c := range corners {
		years[i] = c.Years
		anyAged = anyAged || c.Years > 0
	}
	if !anyAged {
		return make([]*aging.Library, len(corners))
	}
	if cfg.Model == nil || cfg.Profile == nil {
		panic(fmt.Sprintf("sta: AnalyzeCorners on %s: aged corners need Model and Profile", name))
	}
	return aging.NewCornerGrid(cfg.Base, cfg.Model, years)
}

// check is the reporting half of a batched run: scan every endpoint's
// slacks, enumerate the violating cones, and merge into one Result per
// corner — without touching the propagation state, so the incremental
// engine can call it repeatedly over a persistent state. Each Result's
// Factor is a view of the annotation's column: an Incremental retires a
// buffer it has handed out before its next update writes a factor.
func (a *Annotation) check(st *batchState) []*Result {
	g, cfg, K, nc := a.g, a.cfg, len(a.libs), a.g.numCells
	maxPaths := cfg.MaxPaths
	if maxPaths == 0 {
		maxPaths = 200000
	}
	perEndpoint := cfg.PerEndpoint
	if perEndpoint == 0 {
		perEndpoint = 400
	}

	results := make([]*Result, K)
	for k := 0; k < K; k++ {
		rcfg := Config{
			PeriodPs:    cfg.PeriodPs,
			Scale:       cfg.Scale,
			MaxPaths:    maxPaths,
			PerEndpoint: perEndpoint,
		}
		if a.libs[k] != nil {
			rcfg.Aged = a.libs[k]
			rcfg.Profile = cfg.Profile
		} else {
			rcfg.Base = cfg.Base
		}
		results[k] = &Result{
			Config:   rcfg,
			WNSSetup: inf,
			WNSHold:  inf,
			Factor:   a.factor[k*nc : (k+1)*nc : (k+1)*nc],
		}
	}

	// Scan endpoints in the scalar analysis's order (cell order, setup
	// before hold), collecting per-corner WNS and one enumeration job per
	// violating (endpoint, check, corner). perCorner[k] lists corner k's
	// jobs in exactly the scalar enumeration order, for the sequential
	// merge below.
	var jobs []enumJob
	perCorner := make([][]int32, K)
	for ei := range g.endpoints {
		e := &g.endpoints[ei]
		db, kb := int(e.d)*K, int(e.clk)*K
		for k := 0; k < K; k++ {
			clkArr := st.clk[kb+k]
			res := results[k]

			if am := st.arrMax[db+k]; am > negInf {
				required := cfg.PeriodPs + clkArr - st.setup
				slack := required - am
				if slack < res.WNSSetup {
					res.WNSSetup = slack
				}
				if slack < 0 {
					perCorner[k] = append(perCorner[k], int32(len(jobs)))
					jobs = append(jobs, enumJob{ep: ei, typ: Setup, k: k, required: required})
				}
			}
			if an := st.arrMin[db+k]; an < posInf {
				required := clkArr + st.hold
				slack := an - required
				if slack < res.WNSHold {
					res.WNSHold = slack
				}
				if slack < 0 {
					perCorner[k] = append(perCorner[k], int32(len(jobs)))
					jobs = append(jobs, enumJob{ep: ei, typ: Hold, k: k, required: required})
				}
			}
		}
	}

	// Enumerate every violating (endpoint, check, corner) cone in
	// parallel, each walk recording up to the per-endpoint cap of hits;
	// the global MaxPaths budget cannot be applied here without ordering,
	// so walks over-enumerate to the per-endpoint cap and the sequential
	// merge below trims to the budget.
	records, err := par.Map(context.Background(), len(jobs), cfg.Parallelism,
		func(_ context.Context, ji int) (enumRecord, error) {
			return g.walk(st, &jobs[ji], perEndpoint), nil
		})
	if err != nil {
		panic(err) // only a recovered worker panic can land here
	}

	// Merge per corner in scan order — endpoint order, setup before hold
	// — applying each corner's global budget exactly as the scalar
	// analysis does, so counts, truncation and pair summaries match it
	// bit for bit regardless of how the pool interleaved the walks.
	for k := 0; k < K; k++ {
		res := results[k]
		budget := maxPaths
		pm := make(map[pairKey]*PairSummary)
		for _, ji := range perCorner[k] {
			j := &jobs[ji]
			rec := &records[ji]
			allowed := budget
			if perEndpoint < allowed {
				allowed = perEndpoint
			}
			found := len(rec.hits)
			take := found
			if take > allowed {
				take = allowed
			}
			// The scalar DFS reports truncation iff it is entered with its
			// budget exhausted: that happens when more hits exist than
			// allowed, or when the allowed-th hit was found and any walk step
			// followed it.
			if found > allowed || (found == allowed && rec.more) {
				res.Truncated = true
			}
			if j.typ == Setup {
				res.NumSetupViolations += take
			} else {
				res.NumHoldViolations += take
			}
			budget -= take

			end := g.endpoints[j.ep].cellID
			for _, h := range rec.hits[:take] {
				key := pairKey{Pair: Pair{Start: h.start, End: end}, Type: j.typ}
				s, ok := pm[key]
				if !ok {
					s = &PairSummary{Pair: key.Pair, Type: j.typ, WorstSlack: h.slack}
					pm[key] = s
				}
				s.Paths++
				if h.slack < s.WorstSlack {
					s.WorstSlack = h.slack
				}
			}
		}
		for _, p := range pm {
			res.Pairs = append(res.Pairs, *p)
		}
		sortPairs(res.Pairs)
	}
	return results
}

// enumJob is one (endpoint, check, corner) enumeration task with the
// corner's required time at the endpoint.
type enumJob struct {
	ep       int // index into TimingGraph.endpoints
	typ      PathType
	k        int
	required float64
}

// pathHit is one violating path in DFS discovery order.
type pathHit struct {
	start netlist.CellID
	slack float64
}

// enumRecord is the outcome of one walk: up to the per-endpoint cap of
// hits, plus whether any walk step followed the final hit (the signal
// the merge needs to reproduce the scalar truncation flag for budgets
// that land exactly on the hit count).
type enumRecord struct {
	hits []pathHit
	more bool
}

// walk enumerates the violating paths into a job's endpoint at the job's
// corner with an explicit-stack DFS whose traversal order replays the
// recursive scalar DFS: children are pushed in reverse pin order, and a
// node is descended iff its arrival plus the path suffix below it
// violates the required time. Reaching the cap stops the walk outright,
// exactly like the scalar DFS whose every subsequent entry would return
// at the budget check.
func (g *TimingGraph) walk(st *batchState, j *enumJob, limit int) enumRecord {
	K, k, req := st.K, j.k, j.required
	setup := j.typ == Setup
	arr, tab := st.arrMax, &st.tMax
	if !setup {
		arr, tab = st.arrMin, &st.tMin
	}
	clk, scale := st.clk, st.scale
	factor := st.factor[k*g.numCells : (k+1)*g.numCells]

	var rec enumRecord
	stepped := false // an entry followed the last hit

	type frame struct {
		n      netlist.NetID
		suffix float64
	}
	stack := make([]frame, 1, 64)
	stack[0] = frame{n: g.endpoints[j.ep].d}

	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(rec.hits) >= limit {
			rec.more = true
			return rec
		}
		stepped = true
		d := g.driver[f.n]
		cls := classStop
		if d != netlist.NoCell {
			cls = g.class[d]
		}
		if cls == classStop {
			continue
		}
		// Untimed nets hold an IEEE infinity, which saturates the sum onto
		// the prune side — no sentinel check needed.
		a := arr[int(f.n)*K+k]
		if setup {
			if a+f.suffix <= req {
				continue
			}
		} else {
			if a+f.suffix >= req {
				continue
			}
		}
		delay := float64(tab[g.kind[d]] * factor[d] * scale) // as cellDelays
		if cls == classDFF {
			total := clk[int(g.clkSlot[d])*K+k] + delay + f.suffix
			var slack float64
			if setup {
				slack = req - total
			} else {
				slack = total - req
			}
			if slack < 0 {
				rec.hits = append(rec.hits, pathHit{start: d, slack: slack})
				stepped = false
			}
			continue
		}
		child := f.suffix + delay
		lo, hi := g.cellInLo[d], g.cellInLo[d+1]
		for jx := hi - 1; jx >= lo; jx-- {
			stack = append(stack, frame{n: g.cellIn[jx], suffix: child})
		}
	}
	rec.more = stepped
	return rec
}

// batchState is the mutable evaluation state of one analysis:
// structure-of-arrays arrivals, corner-contiguous per net or clock slot
// (index*K+k), so a node's K corner values share a cache line. Delays
// are not stored: cellDelays derives them from the factor columns.
type batchState struct {
	g *TimingGraph
	K int

	factor      []float64 // K corner-major factor columns, numCells apart
	tMax, tMin  [cell.NumKinds]float64
	scale       float64
	setup, hold float64

	slab []float64 // pooled backing store of the layers below

	// SoA layers, [index*K + k].
	arrMax, arrMin []float64 // per net: data arrival
	clk            []float64 // per clock slot: clock arrival
	hiS, loS       []float64 // propagate scratch
	dxS, dnS       []float64 // cellDelays scratch
}

// slabPool recycles evaluation slabs across AnalyzeCorners calls. Every
// lane of a recycled slab is either rewritten before it is read —
// propagate covers every driven net and sentinel-fills g.untimed,
// computeClockArrivals zeroes g.clkRoots and writes every driven clock
// slot, cellDelays writes its scratch before returning it — or never
// read at all, so no clearing sweep is needed. In a sweep loop this
// removes the dominant allocation: megabytes of zeroing plus the GC
// pressure of churning them.
//
// gridPool recycles the factor grids of the annotations AnalyzeCorners
// drops. It is not slabPool, whose slabs a kept annotation would keep;
// a grid allocated per call made BenchmarkLifetimeSweep/ALU/batched
// 5–11 % slower.
var slabPool, gridPool sync.Pool

func getSlab(pool *sync.Pool, n int) []float64 {
	if p, _ := pool.Get().(*[]float64); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

func putSlab(pool *sync.Pool, s []float64) {
	if s != nil {
		pool.Put(&s)
	}
}

func newBatchState(g *TimingGraph, K int, factor []float64, base *cell.Library, scale float64) *batchState {
	st := &batchState{g: g, K: K, factor: factor, scale: scale}
	for kd, t := range base.Timing {
		st.tMax[kd], st.tMin[kd] = t.DelayMax, t.DelayMin
	}
	dff := base.Timing[cell.DFF]
	st.setup, st.hold = dff.Setup*scale, dff.Hold*scale
	netN, clkN := g.numNets*K, g.numClk*K
	st.slab = getSlab(&slabPool, 2*netN+clkN+4*K)
	slab := st.slab
	st.arrMax, slab = slab[:netN:netN], slab[netN:]
	st.arrMin, slab = slab[:netN:netN], slab[netN:]
	st.clk, slab = slab[:clkN:clkN], slab[clkN:]
	st.hiS, slab = slab[:K:K], slab[K:]
	st.loS, slab = slab[:K:K], slab[K:]
	st.dxS, slab = slab[:K:K], slab[K:]
	st.dnS = slab[:K:K]
	return st
}

// release returns the pooled slab; the state must not be used after.
func (st *batchState) release() {
	putSlab(&slabPool, st.slab)
	st.slab = nil
}

// buildGrid re-lays the corner libraries' characterization grid
// corner-contiguous, so interpolating a cell reads two contiguous K-runs
// instead of K scattered per-corner rows. Values are copied verbatim,
// and only the kinds the netlist instantiates get rows. A fresh corner's
// slots keep what a recycled grid held (zero, or another grid's
// factors): interpolate overwrites its lanes with an exact 1.
func (a *Annotation) buildGrid() {
	g, K := a.g, len(a.libs)
	for k, lib := range a.libs {
		if lib == nil {
			a.fresh = append(a.fresh, k)
		} else {
			a.points = len(lib.FactorRow(0))
		}
	}
	if a.points == 0 {
		return
	}
	n := a.points * K
	a.gridSlab = getSlab(&gridPool, len(g.usedKinds)*n)
	for u, kd := range g.usedKinds {
		a.grid[kd] = a.gridSlab[u*n : (u+1)*n : (u+1)*n]
	}
	for k, lib := range a.libs {
		if lib == nil {
			continue
		}
		for _, kd := range g.usedKinds {
			dst := a.grid[kd]
			for i, v := range lib.FactorRow(kd) {
				dst[i*K+k] = v
			}
		}
	}
}

// interpolate writes the aging factor of cells lo..hi-1 at every corner:
// the one interpolation of the engine, which Annotate runs over every
// cell and an Incremental over each cell whose SP moved. It is
// Library.Factor's expression — not the separable shortcut, because
// bit-identity is the contract, and interpolating tabulated 1+x values
// is not bitwise the same as 1 + interpolating x — with the grid
// position and weights, which depend only on the cell's SP, hoisted out
// of the corner loop. The explicit conversions round the position and
// both products, as Factor does, so no compiler fuses them (arm64
// would, to FNMSUBD and FMADDD). A fresh corner's factor is written as
// an exact 1 afterwards: omf+frac need not round back to 1, and one
// fixup costs less than a per-lane branch.
func (a *Annotation) interpolate(lo, hi int) {
	g, K, nc, last := a.g, len(a.libs), a.g.numCells, a.points-1
	factor, fresh, grids := a.factor, a.fresh, &a.grid
	var sps []float64
	if a.cfg.Profile != nil {
		sps = a.cfg.Profile.SP
	}
	for i := lo; i < hi; i++ {
		if grid := grids[g.kind[i]]; grid != nil {
			var sp float64
			if sps != nil {
				sp = sps[g.outNet[i]]
			}
			var s0, s1 []float64
			var omf, frac float64
			if sp <= 0 || sp >= 1 {
				ci := 0
				if sp >= 1 {
					ci = last
				}
				s0 = grid[ci*K : ci*K+K]
				s1 = s0
				omf, frac = 1, 0
			} else {
				pos := float64(sp * float64(last))
				i0 := int(pos)
				frac = pos - float64(i0)
				omf = 1 - frac
				s0 = grid[i0*K : i0*K+K]
				s1 = grid[(i0+1)*K : (i0+1)*K+K]
			}
			idx := i
			for k := range s0 {
				factor[idx] = float64(s0[k]*omf) + float64(s1[k]*frac)
				idx += nc
			}
		}
		for _, k := range fresh {
			factor[k*nc+i] = 1
		}
	}
}

// cellDelays writes cell i's K max and min delay lanes into the delay
// scratch and returns it. Each lane is the scalar oracle's expression,
// t.Delay * f * scale, over the factor column; a fresh lane's factor is
// exactly 1, and x·1 is x, so it is the fresh delay bit for bit. The
// explicit conversion rounds the product before any caller adds it to
// an arrival: Go lets a compiler fuse a multiply into a following add
// (arm64 does, to FMADDD), and a fused sum is not the oracle's, which
// adds a delay it stored. The scratch is shared, so the path walks,
// which run in parallel, derive their delays inline instead.
func (st *batchState) cellDelays(i int) (dx, dn []float64) {
	kd, nc := st.g.kind[i], st.g.numCells
	tx, tn, scale := st.tMax[kd], st.tMin[kd], st.scale
	dx, dn = st.dxS, st.dnS
	idx := i
	for k := range dx {
		f := st.factor[idx]
		dx[k] = float64(tx * f * scale)
		dn[k] = float64(tn * f * scale)
		idx += nc
	}
	return dx, dn
}

// launch writes flip-flop i's launch (Q) arrivals, its clock arrival
// plus its clk-to-q delay, and reports whether any lane changed.
func (st *batchState) launch(i int) bool {
	g, K := st.g, st.K
	qb, kb := int(g.outNet[i])*K, int(g.clkSlot[i])*K
	am := st.arrMax[qb : qb+K : qb+K]
	an := st.arrMin[qb : qb+K : qb+K]
	ck := st.clk[kb : kb+K]
	dx, dn := st.cellDelays(i)
	changed := false
	for k := range am {
		hi, lo := ck[k]+dx[k], ck[k]+dn[k]
		changed = changed || hi != am[k] || lo != an[k]
		am[k], an[k] = hi, lo
	}
	return changed
}

// computeClockArrivals propagates clock arrivals down the tree for every
// corner at once: clock cells appear in topo order, so one forward pass
// over the slice memo replaces the scalar recursion — per corner, the
// same root-to-leaf sum in the same association order.
func (st *batchState) computeClockArrivals() {
	g, K := st.g, st.K
	for _, s := range g.clkRoots {
		clear(st.clk[int(s)*K : int(s)*K+K])
	}
	for i := range g.clockOps {
		op := &g.clockOps[i]
		src := st.clk[int(op.in)*K : int(op.in)*K+K]
		dst := st.clk[int(op.out)*K : int(op.out)*K+K : int(op.out)*K+K]
		d, _ := st.cellDelays(int(op.cellID))
		for k := range dst {
			dst[k] = src[k] + d[k]
		}
	}
}

// propagate runs the forward block-based arrival pass for every corner
// in one topo traversal. Untimed nets hold IEEE infinities, so there are
// no sentinel guards anywhere: the max/min over a cell's inputs treats
// an untimed lane as the identity, and adding the delay saturates an
// all-untimed result back onto the sentinel. Only the nets the pass
// never writes (g.untimed) need sentinel-filling up front; every comb
// output and flip-flop output is overwritten unconditionally. One- and
// two-input cells — the bulk of a real netlist — skip the scratch
// reduction entirely.
func (st *batchState) propagate() {
	g, K := st.g, st.K
	for _, n := range g.untimed {
		b := int(n) * K
		am := st.arrMax[b : b+K : b+K]
		an := st.arrMin[b : b+K : b+K]
		for k := range am {
			am[k] = negInf
			an[k] = posInf
		}
	}
	for i := range g.endpoints {
		st.launch(int(g.endpoints[i].cellID))
	}
	for i := range g.combOps {
		st.propOp(i)
	}
}

// propOp re-evaluates one combinational op's output arrivals from its
// current input arrivals and its cellDelays. It is the single
// propagation kernel: the full pass above calls it for every op in
// topo order, and the incremental worklist (incremental.go) calls it
// for exactly the dirty cone — same code, so re-evaluated lanes are
// bitwise what a full pass would write.
func (st *batchState) propOp(i int) {
	g, K := st.g, st.K
	hiS, loS := st.hiS, st.loS
	op := &g.combOps[i]
	lo, hi := g.cellInLo[op.cellID], g.cellInLo[op.cellID+1]
	ob := int(op.out) * K
	om := st.arrMax[ob : ob+K : ob+K]
	on := st.arrMin[ob : ob+K : ob+K]
	dx, dn := st.cellDelays(int(op.cellID))
	ab := int(g.cellIn[lo]) * K
	am := st.arrMax[ab : ab+K]
	an := st.arrMin[ab : ab+K]
	switch hi - lo {
	case 1:
		for k := range om {
			om[k] = am[k] + dx[k]
			on[k] = an[k] + dn[k]
		}
	case 2:
		bb := int(g.cellIn[lo+1]) * K
		bm := st.arrMax[bb : bb+K]
		bn := st.arrMin[bb : bb+K]
		// The builtin max/min lower to branchless MAXSD/MINSD here.
		// On this loop's domain (finite non-negative sums and the
		// ±Inf sentinels, never NaN or −0) they agree bit-for-bit
		// with the scalar engine's compare-and-assign.
		for k := range om {
			om[k] = max(am[k], bm[k]) + dx[k]
			on[k] = min(an[k], bn[k]) + dn[k]
		}
	default:
		copy(hiS, am)
		copy(loS, an)
		for j := lo + 1; j < hi; j++ {
			ib := int(g.cellIn[j]) * K
			im := st.arrMax[ib : ib+K]
			in := st.arrMin[ib : ib+K]
			for k, v := range im {
				hiS[k] = max(hiS[k], v)
			}
			for k, v := range in {
				loS[k] = min(loS[k], v)
			}
		}
		for k := range om {
			om[k] = hiS[k] + dx[k]
			on[k] = loS[k] + dn[k]
		}
	}
}

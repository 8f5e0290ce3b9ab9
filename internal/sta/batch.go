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
// violating paths are enumerated by a multi-corner explicit-stack walker
// — one DFS per (endpoint, check) shared by every corner that flagged it
// — fanned out over a par.Map pool and merged deterministically in the
// scalar analysis's endpoint order. The scalar engine this replaced is
// the test-only oracle in oracle_test.go: AnalyzeCorners is required to
// reproduce its Results bit for bit at every corner and Parallelism
// (TestBatchedMatchesScalar, FuzzBatchedVsScalar).

// Corner is one point of a multi-corner analysis: an assumed lifetime
// (Years <= 0 means fresh) and an optional operating-temperature
// override in Kelvin (zero keeps the model's TempK).
type Corner struct {
	Years float64
	TempK float64
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
	// and skips the aging.NewCornerGrid characterization — the reuse seam
	// the fleet daemon's content-addressed store plugs into, so repeated
	// submissions of one netlist pay the grid once (see CornerLibraries).
	// Must be exactly one entry per corner, nil entries marking fresh
	// corners, and must have been built from the same Base/Model/Profile
	// this config carries or the results are silently wrong. A stale Libs
	// also binds Incremental.SetCorners to the same corner count.
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
	K := len(corners)
	if K == 0 {
		return nil
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 1
	}

	g := CachedGraph(nl)
	libs := cornerLibs(nl.Name, cfg, corners)

	st := newBatchState(g, K)
	st.computeDelays(cfg, libs, scale)
	st.computeClockArrivals()
	st.propagate()
	results := checkAndEnumerate(g, st, cfg, corners, libs, st.factorC, nil)
	st.release() // walks are done; Results hold no views into the slab
	return results
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
	K := len(corners)
	libs := make([]*aging.Library, K)
	anyAged := false
	for _, c := range corners {
		if c.Years > 0 {
			anyAged = true
		}
	}
	if anyAged {
		if cfg.Model == nil || cfg.Profile == nil {
			panic(fmt.Sprintf("sta: AnalyzeCorners on %s: aged corners need Model and Profile", name))
		}
		specs := make([]aging.CornerSpec, K)
		for i, c := range corners {
			specs[i] = aging.CornerSpec{Years: c.Years, TempK: c.TempK}
		}
		grid := aging.NewCornerGrid(cfg.Base, cfg.Model, specs)
		for i := range corners {
			libs[i] = grid.Library(i)
		}
	}
	return libs
}

// clockArrivalMaps builds one endpoint->clock-arrival map per corner
// from the state's current clock lanes. The incremental engine caches
// the returned maps across updates that leave the clock network's
// delays untouched.
func clockArrivalMaps(g *TimingGraph, st *batchState) []map[netlist.CellID]float64 {
	maps := make([]map[netlist.CellID]float64, st.K)
	// Fill each corner's map in its own pass so one map stays hot per
	// loop instead of round-robining K maps per endpoint.
	for k := 0; k < st.K; k++ {
		m := make(map[netlist.CellID]float64, len(g.endpoints))
		for ei := range g.endpoints {
			e := &g.endpoints[ei]
			m[e.cellID] = st.clk[int(e.clk)*st.K+k]
		}
		maps[k] = m
	}
	return maps
}

// checkAndEnumerate is the reporting half of a batched run: scan every
// endpoint's slacks, enumerate the violating cones, and merge into one
// Result per corner — without touching the propagation state, so the
// incremental engine can call it repeatedly over a persistent state. The
// factor columns to embed are passed in (the one-shot pass hands over
// its own, the incremental engine hands fresh copies so later updates
// cannot mutate escaped Results); clockMaps, when non-nil, supplies
// prebuilt per-corner clock-arrival maps to share instead of building.
func checkAndEnumerate(g *TimingGraph, st *batchState, cfg BatchConfig, corners []Corner,
	libs []*aging.Library, factorC [][]float64, clockMaps []map[netlist.CellID]float64) []*Result {

	K := len(corners)
	maxPaths := cfg.MaxPaths
	if maxPaths == 0 {
		maxPaths = 200000
	}
	perEndpoint := cfg.PerEndpoint
	if perEndpoint == 0 {
		perEndpoint = 400
	}
	if clockMaps == nil {
		clockMaps = clockArrivalMaps(g, st)
	}

	results := make([]*Result, K)
	for k := 0; k < K; k++ {
		rcfg := Config{
			PeriodPs:    cfg.PeriodPs,
			Scale:       cfg.Scale,
			MaxPaths:    maxPaths,
			PerEndpoint: perEndpoint,
		}
		if libs[k] != nil {
			rcfg.Aged = libs[k]
			rcfg.Profile = cfg.Profile
		} else {
			rcfg.Base = cfg.Base
		}
		results[k] = &Result{
			Config:       rcfg,
			WNSSetup:     inf,
			WNSHold:      inf,
			Factor:       factorC[k],
			ClockArrival: clockMaps[k],
		}
	}

	// Scan endpoints in the scalar analysis's order (cell order, setup
	// before hold), collecting per-corner WNS and one enumeration job per
	// violating (endpoint, check) — shared by every corner that flags it.
	// perCorner[k] lists that corner's (job, lane) records in exactly the
	// scalar enumeration order, for the sequential merge below.
	var jobs []enumJob
	perCorner := make([][]cornerRef, K)
	for ei := range g.endpoints {
		e := &g.endpoints[ei]
		db, kb := int(e.d)*K, int(e.clk)*K
		var sCor, hCor []int32
		var sReq, hReq []float64
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
					sCor = append(sCor, int32(k))
					sReq = append(sReq, required)
				}
			}
			if an := st.arrMin[db+k]; an < posInf {
				required := clkArr + st.hold
				slack := an - required
				if slack < res.WNSHold {
					res.WNSHold = slack
				}
				if slack < 0 {
					hCor = append(hCor, int32(k))
					hReq = append(hReq, required)
				}
			}
		}
		if len(sCor) > 0 {
			for pos, k := range sCor {
				perCorner[k] = append(perCorner[k], cornerRef{job: int32(len(jobs)), lane: int32(pos)})
			}
			jobs = append(jobs, enumJob{ep: ei, typ: Setup, corners: sCor, required: sReq})
		}
		if len(hCor) > 0 {
			for pos, k := range hCor {
				perCorner[k] = append(perCorner[k], cornerRef{job: int32(len(jobs)), lane: int32(pos)})
			}
			jobs = append(jobs, enumJob{ep: ei, typ: Hold, corners: hCor, required: hReq})
		}
	}

	// Enumerate all violating (endpoint, check) cones in parallel. Each
	// job walks every requesting corner in one pass, recording up to the
	// per-endpoint cap of hits per corner; the global MaxPaths budget
	// cannot be applied here without ordering, so jobs over-enumerate to
	// the per-endpoint cap and the sequential merge below trims to the
	// budget.
	records, err := par.Map(context.Background(), len(jobs), cfg.Parallelism,
		func(_ context.Context, ji int) ([]enumRecord, error) {
			return g.walkViolations(st, &jobs[ji], perEndpoint), nil
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
		for _, ref := range perCorner[k] {
			j := &jobs[ref.job]
			rec := &records[ref.job][ref.lane]
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

// enumJob is one (endpoint, check) enumeration task, carrying the lanes
// — corners that flagged a violation here — and each lane's required
// time. Lanes are in ascending corner order.
type enumJob struct {
	ep       int // index into TimingGraph.endpoints
	typ      PathType
	corners  []int32
	required []float64
}

// cornerRef locates one corner's enumeration record: lane `lane` of job
// `job`.
type cornerRef struct {
	job  int32
	lane int32
}

// pathHit is one violating path in DFS discovery order.
type pathHit struct {
	start netlist.CellID
	slack float64
}

// enumRecord is the outcome of one corner's walk: up to the per-endpoint
// cap of hits, plus whether any walk step followed the final hit (the
// signal the merge needs to reproduce the scalar truncation flag for
// budgets that land exactly on the hit count).
type enumRecord struct {
	hits []pathHit
	more bool
}

// walkFrame is one node of the shared multi-corner DFS. Its live lanes
// and their path suffixes sit at [off, off+cnt) of the walk's lane
// buffers; all children of a node share one span, since a lane's child
// suffix (suffix + driver delay) is the same for every input pin.
//
// A frame with cnt == soloCnt is a demoted single-lane node: off holds
// the lane index and suffix the lane's path suffix, with no span behind
// it. Deep in post-onset cones pruning thins most spans to one survivor,
// and carrying the span machinery (append-filtered lane buffers, span
// truncation, per-lane bookkeeping loops) for a single lane roughly
// doubles the per-node cost over the scalar walk — demotion makes the
// thinned tail of the DFS cost what walkSolo costs.
type walkFrame struct {
	n      netlist.NetID
	off    int32
	cnt    int32
	suffix float64 // solo frames only
}

// soloCnt marks a demoted single-lane walkFrame.
const soloCnt int32 = -1

// walkViolations enumerates the violating paths into a job's endpoint
// for every requesting corner in a single DFS. The traversal order is
// structural — children are pushed in reverse pin order so pops replay
// the recursive scalar DFS — and identical for every corner, so each
// lane's hits land in exactly the order its solo scalar enumeration
// would record them. A lane participates in a node iff it survived the
// parent's arrival-based pruning, which is precisely the scalar walk's
// descend condition; restricting a DFS preorder to such an
// ancestor-closed subset with unchanged child order yields that subset's
// own DFS preorder, so per-lane bit-identity holds. Lanes that fill the
// per-endpoint cap set their truncation signal on their next entry and
// drop out; the walk stops when every lane is done.
func (g *TimingGraph) walkViolations(st *batchState, j *enumJob, limit int) []enumRecord {
	if len(j.corners) == 1 {
		return g.walkSolo(st, j, limit)
	}
	K := st.K
	C := len(j.corners)
	setup := j.typ == Setup
	arr, delay := st.arrMax, st.dmax
	if !setup {
		arr, delay = st.arrMin, st.dmin
	}
	clk := st.clk

	recs := make([]enumRecord, C)
	// Per-lane walk state, kept as packed int32s: delta counts entries
	// since the lane's last hit (the scalar truncation flag for a lane
	// that never reached its cap is exactly "some entry followed the
	// final hit", i.e. delta > 0), nHits is the lane's hit count for the
	// cap test — cheaper than re-deriving it from the record's slice
	// header on every node.
	delta := make([]int32, C)
	nHits := make([]int32, C)
	done := make([]bool, C)
	active := C
	limit32 := int32(limit)

	laneC := make([]int32, C, 16*C)   // lane index (position in j.corners)
	laneS := make([]float64, C, 16*C) // that lane's suffix at this node
	for p := range laneC {
		laneC[p] = int32(p)
	}
	stack := make([]walkFrame, 1, 64)
	stack[0] = walkFrame{n: g.endpoints[j.ep].d, off: 0, cnt: int32(C)}

	for len(stack) > 0 && active > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.cnt == soloCnt {
			// Demoted single-lane node: walkSolo's body, against this
			// lane's slice of the batched state. Same entry accounting,
			// prune and hit conditions as the span path, so the lane's
			// record is unchanged — only the bookkeeping is cheaper.
			p := f.off
			if done[p] {
				continue
			}
			if nHits[p] >= limit32 {
				recs[p].more = true
				done[p] = true
				active--
				continue
			}
			delta[p]++
			d := g.driver[f.n]
			cls := classStop
			if d != netlist.NoCell {
				cls = g.class[d]
			}
			if cls == classStop {
				continue
			}
			k := int(j.corners[p])
			a := arr[int(f.n)*K+k]
			if setup {
				if a+f.suffix <= j.required[p] {
					continue
				}
			} else {
				if a+f.suffix >= j.required[p] {
					continue
				}
			}
			if cls == classDFF {
				total := clk[int(g.clkNet[d])*K+k] + delay[int(d)*K+k] + f.suffix
				var slack float64
				if setup {
					slack = j.required[p] - total
				} else {
					slack = total - j.required[p]
				}
				if slack < 0 {
					recs[p].hits = append(recs[p].hits, pathHit{start: d, slack: slack})
					delta[p] = 0
					nHits[p]++
				}
				continue
			}
			child := f.suffix + delay[int(d)*K+k]
			lo, hi := g.cellInLo[d], g.cellInLo[d+1]
			for jx := hi - 1; jx >= lo; jx-- {
				stack = append(stack, walkFrame{n: g.cellIn[jx], off: p, cnt: soloCnt, suffix: child})
			}
			continue
		}
		lc := laneC[f.off : f.off+f.cnt]
		ls := laneS[f.off : f.off+f.cnt]
		ls = ls[:len(lc)] // bounds-check elimination for ls[li]
		// Every span above this frame's belongs to an already-finished
		// subtree (spans are allocated in DFS order and the stack is LIFO:
		// the remaining frames are this node's siblings and its ancestors'
		// siblings, whose spans all end at or below f.off+f.cnt). Reclaim
		// that space so the buffers stay O(depth·lanes) instead of growing
		// with every visited node.
		laneC = laneC[:f.off+f.cnt]
		laneS = laneS[:f.off+f.cnt]

		d := g.driver[f.n]
		cls := classStop
		if d != netlist.NoCell {
			cls = g.class[d]
		}
		if cls == classStop {
			// Entry accounting only: the scalar DFS counts the entry (and
			// flags truncation if its cap is already met) before discovering
			// there is nothing to descend into.
			for _, p := range lc {
				if done[p] {
					continue
				}
				if nHits[p] >= limit32 {
					recs[p].more = true
					done[p] = true
					active--
					continue
				}
				delta[p]++
			}
			continue
		}

		ab := int(f.n) * K
		if cls == classDFF {
			cb, ckb := int(d)*K, int(g.clkNet[d])*K
			for li, p := range lc {
				if done[p] {
					continue
				}
				if nHits[p] >= limit32 {
					recs[p].more = true
					done[p] = true
					active--
					continue
				}
				delta[p]++
				k := int(j.corners[p])
				a, suffix := arr[ab+k], ls[li]
				// Untimed lanes hold an IEEE infinity, which saturates the sum
				// onto the prune side — no sentinel check needed.
				if setup {
					if a+suffix <= j.required[p] {
						continue
					}
				} else {
					if a+suffix >= j.required[p] {
						continue
					}
				}
				total := clk[ckb+k] + delay[cb+k] + suffix
				var slack float64
				if setup {
					slack = j.required[p] - total
				} else {
					slack = total - j.required[p]
				}
				if slack >= 0 {
					continue
				}
				recs[p].hits = append(recs[p].hits, pathHit{start: d, slack: slack})
				delta[p] = 0
				nHits[p]++
			}
			continue
		}

		// Combinational driver: prune each lane, and push the survivors'
		// span once for all input pins.
		cb := int(d) * K
		sOff := int32(len(laneC))
		for li, p := range lc {
			if done[p] {
				continue
			}
			if nHits[p] >= limit32 {
				recs[p].more = true
				done[p] = true
				active--
				continue
			}
			delta[p]++
			k := int(j.corners[p])
			a, suffix := arr[ab+k], ls[li]
			if setup {
				if a+suffix <= j.required[p] {
					continue
				}
			} else {
				if a+suffix >= j.required[p] {
					continue
				}
			}
			laneC = append(laneC, p)
			laneS = append(laneS, suffix+delay[cb+k])
		}
		cnt := int32(len(laneC)) - sOff
		if cnt == 0 {
			continue
		}
		lo, hi := g.cellInLo[d], g.cellInLo[d+1]
		if cnt == 1 {
			// One survivor: demote the subtree to solo frames and give
			// the span back — solo frames never touch the lane buffers.
			p, child := laneC[sOff], laneS[sOff]
			laneC = laneC[:sOff]
			laneS = laneS[:sOff]
			for jx := hi - 1; jx >= lo; jx-- {
				stack = append(stack, walkFrame{n: g.cellIn[jx], off: p, cnt: soloCnt, suffix: child})
			}
			continue
		}
		for jx := hi - 1; jx >= lo; jx-- {
			stack = append(stack, walkFrame{n: g.cellIn[jx], off: sOff, cnt: cnt})
		}
	}
	for p := range recs {
		if !done[p] {
			recs[p].more = delta[p] > 0
		}
	}
	return recs
}

// walkSolo is walkViolations for a single requesting corner: the same
// structural DFS with the suffix carried in the frame, no lane spans and
// no per-lane state — the common case for sparse violations, where the
// multi-lane machinery would be pure overhead. Reaching the cap stops
// the walk outright, exactly like the scalar DFS whose every subsequent
// entry would return at the budget check.
func (g *TimingGraph) walkSolo(st *batchState, j *enumJob, limit int) []enumRecord {
	K := st.K
	setup := j.typ == Setup
	arr, delay := st.arrMax, st.dmax
	if !setup {
		arr, delay = st.arrMin, st.dmin
	}
	clk := st.clk
	k := int(j.corners[0])
	req := j.required[0]

	var rec enumRecord
	var delta int32
	nHits := 0

	type soloFrame struct {
		n      netlist.NetID
		suffix float64
	}
	stack := make([]soloFrame, 1, 64)
	stack[0] = soloFrame{n: g.endpoints[j.ep].d}

	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nHits >= limit {
			rec.more = true
			break
		}
		delta++
		d := g.driver[f.n]
		cls := classStop
		if d != netlist.NoCell {
			cls = g.class[d]
		}
		if cls == classStop {
			continue
		}
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
		if cls == classDFF {
			total := clk[int(g.clkNet[d])*K+k] + delay[int(d)*K+k] + f.suffix
			var slack float64
			if setup {
				slack = req - total
			} else {
				slack = total - req
			}
			if slack < 0 {
				rec.hits = append(rec.hits, pathHit{start: d, slack: slack})
				delta = 0
				nHits++
			}
			continue
		}
		child := f.suffix + delay[int(d)*K+k]
		lo, hi := g.cellInLo[d], g.cellInLo[d+1]
		for jx := hi - 1; jx >= lo; jx-- {
			stack = append(stack, soloFrame{n: g.cellIn[jx], suffix: child})
		}
	}
	if !rec.more {
		rec.more = delta > 0
	}
	return []enumRecord{rec}
}

// batchState is the mutable evaluation state of one AnalyzeCorners run:
// structure-of-arrays timing data, corner-contiguous per net/cell
// (index*K+k), so a node's K corner values share a cache line. The
// factor layer alone is corner-major (factorC), because Result.Factor
// exposes it per corner; consecutive cells of one corner stride K
// parallel cache-line streams, which prefetches fine for small K.
type batchState struct {
	g *TimingGraph
	K int

	setup, hold float64

	slab []float64 // pooled backing store of the layers below

	// SoA layers, [index*K + k].
	dmin, dmax     []float64 // per cell
	clk            []float64 // per net: clock arrival
	arrMax, arrMin []float64 // per net: data arrival
	hiS, loS       []float64 // propagate scratch

	factorC    [][]float64 // per-corner factors for Result.Factor (escapes)
	factorFlat []float64   // factorC's backing store, corner-major
}

// slabPool recycles evaluation slabs across AnalyzeCorners calls. Every
// lane of a recycled slab is either rewritten before it is read —
// computeDelays covers all cells, propagate covers every driven net and
// sentinel-fills g.untimed, computeClockArrivals zeroes g.clkRoots and
// writes every driven clock net — or never read at all, so no clearing
// sweep is needed. In a sweep loop this removes the dominant allocation:
// megabytes of zeroing plus the GC pressure of churning them.
var slabPool sync.Pool

func getSlab(n int) []float64 {
	if p, _ := slabPool.Get().(*[]float64); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

func putSlab(s []float64) { slabPool.Put(&s) }

func newBatchState(g *TimingGraph, K int) *batchState {
	st := &batchState{g: g, K: K}
	cellN, netN := g.numCells*K, g.numNets*K
	st.slab = getSlab(2*cellN + 3*netN + 2*K)
	slab := st.slab
	st.dmin, slab = slab[:cellN:cellN], slab[cellN:]
	st.dmax, slab = slab[:cellN:cellN], slab[cellN:]
	st.clk, slab = slab[:netN:netN], slab[netN:]
	st.arrMax, slab = slab[:netN:netN], slab[netN:]
	st.arrMin, slab = slab[:netN:netN], slab[netN:]
	st.hiS, slab = slab[:K:K], slab[K:]
	st.loS = slab[:K:K]

	// The factor columns escape into Results, so they are allocated
	// fresh, never pooled.
	st.factorFlat = make([]float64, K*g.numCells)
	st.factorC = make([][]float64, K)
	for k := range st.factorC {
		st.factorC[k] = st.factorFlat[k*g.numCells : (k+1)*g.numCells : (k+1)*g.numCells]
	}
	return st
}

// release returns the pooled slab; the state must not be used after.
func (st *batchState) release() {
	putSlab(st.slab)
	st.slab = nil
}

// computeDelays fills the aged+scaled delay vectors for every corner.
// Factors go through the same Library.Factor interpolation the scalar
// analysis uses — not the separable shortcut — because bit-identity is
// the contract, and interpolating tabulated 1+x values is not bitwise
// the same as 1 + interpolating x. The grid position and interpolation
// weights depend only on the cell's SP, so they are hoisted out of the
// corner loop and applied to each corner's factor row directly.
func (st *batchState) computeDelays(cfg BatchConfig, libs []*aging.Library, scale float64) {
	g, K := st.g, st.K

	// Re-lay the characterization grid corner-contiguous: gridSoA[kind]
	// holds that kind's tabulated rows as [point*K + k], so the per-cell
	// interpolation below reads two contiguous K-runs instead of K
	// scattered per-corner rows. Values are copied verbatim — the
	// interpolation expression stays row[i0]*omf + row[i0+1]*frac.
	anyAged := false
	aged := make([]bool, K)
	points := 0
	for k, lib := range libs {
		if lib != nil {
			anyAged = true
			aged[k] = true
			points = len(lib.FactorRow(0))
		}
	}
	fC := st.factorC
	if !anyAged {
		// x*1.0 is bitwise x, so the fresh factor folds away.
		for k := range fC {
			col := fC[k]
			for i := range col {
				col[i] = 1
			}
		}
		for i := 0; i < g.numCells; i++ {
			t := cfg.Base.Timing[g.kind[i]]
			base := i * K
			dn := st.dmin[base : base+K : base+K]
			dx := st.dmax[base : base+K : base+K]
			for k := range dn {
				dn[k] = t.DelayMin * scale
				dx[k] = t.DelayMax * scale
			}
		}
		dff := cfg.Base.Timing[cell.DFF]
		st.setup = dff.Setup * scale
		st.hold = dff.Hold * scale
		return
	}

	// Fresh lanes are fixed up after the unconditional interpolation
	// below: an exact factor of 1 is not representable as a grid interp
	// (omf+frac need not round back to 1), and a per-lane branch in the
	// hot loop costs more than re-writing the handful of fresh lanes.
	var freshLanes []int
	for k, a := range aged {
		if !a {
			freshLanes = append(freshLanes, k)
		}
	}

	// Only the kinds the netlist instantiates get grid rows; the other
	// rows' slots stay dirty in the pooled slab and are never read (the
	// per-cell loop below indexes gridSoA by instantiated kinds only).
	gridFlat := getSlab(cell.NumKinds * points * K)
	var gridSoA [cell.NumKinds][]float64
	for _, kd := range g.usedKinds {
		gridSoA[kd] = gridFlat[int(kd)*points*K : (int(kd)+1)*points*K : (int(kd)+1)*points*K]
	}
	for k, lib := range libs {
		if lib == nil {
			// Keep the pooled slab's fresh-lane slots deterministic; the
			// interpolated value is discarded by the fixup either way.
			for _, kd := range g.usedKinds {
				dst := gridSoA[kd]
				for i := 0; i < points; i++ {
					dst[i*K+k] = 1
				}
			}
			continue
		}
		for _, kd := range g.usedKinds {
			dst := gridSoA[kd]
			for i, v := range lib.FactorRow(kd) {
				dst[i*K+k] = v
			}
		}
	}
	last := points - 1

	// Result.Factor columns are corner-major; stores walk their shared
	// backing store with a strength-reduced flat index (one column apart
	// per lane).
	fFlat := st.factorFlat

	for i := 0; i < g.numCells; i++ {
		t := cfg.Base.Timing[g.kind[i]]
		base := i * K
		dn := st.dmin[base : base+K : base+K]
		dx := st.dmax[base : base+K : base+K]
		var sp float64
		if cfg.Profile != nil {
			sp = cfg.Profile.SP[g.outNet[i]]
		}
		grid := gridSoA[g.kind[i]]
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
			pos := sp * float64(last)
			i0 := int(pos)
			frac = pos - float64(i0)
			omf = 1 - frac
			s0 = grid[i0*K : i0*K+K]
			s1 = grid[(i0+1)*K : (i0+1)*K+K]
		}
		idx := i
		for k := range dn {
			f := s0[k]*omf + s1[k]*frac
			fFlat[idx] = f
			dn[k] = t.DelayMin * f * scale
			dx[k] = t.DelayMax * f * scale
			idx += g.numCells
		}
		for _, k := range freshLanes {
			fFlat[k*g.numCells+i] = 1
			dn[k] = t.DelayMin * scale
			dx[k] = t.DelayMax * scale
		}
	}
	putSlab(gridFlat)
	dff := cfg.Base.Timing[cell.DFF]
	st.setup = dff.Setup * scale
	st.hold = dff.Hold * scale
}

// computeClockArrivals propagates clock arrivals down the tree for every
// corner at once: clock cells appear in topo order, so one forward pass
// over the slice memo replaces the scalar recursion — per corner, the
// same root-to-leaf sum in the same association order.
func (st *batchState) computeClockArrivals() {
	g, K := st.g, st.K
	for _, n := range g.clkRoots {
		b := int(n) * K
		dst := st.clk[b : b+K : b+K]
		for k := range dst {
			dst[k] = 0
		}
	}
	for i := range g.clockOps {
		op := &g.clockOps[i]
		src := st.clk[int(op.in)*K : int(op.in)*K+K]
		dst := st.clk[int(op.out)*K : int(op.out)*K+K : int(op.out)*K+K]
		d := st.dmax[int(op.cellID)*K : int(op.cellID)*K+K]
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
		e := &g.endpoints[i]
		qb, cb, kb := int(e.q)*K, int(e.cellID)*K, int(e.clk)*K
		am := st.arrMax[qb : qb+K : qb+K]
		an := st.arrMin[qb : qb+K : qb+K]
		ck := st.clk[kb : kb+K]
		dx := st.dmax[cb : cb+K]
		dn := st.dmin[cb : cb+K]
		for k := range am {
			am[k] = ck[k] + dx[k]
			an[k] = ck[k] + dn[k]
		}
	}
	for i := range g.combOps {
		st.propOp(i)
	}
}

// propOp re-evaluates one combinational op's output arrivals from its
// current input arrivals and delay lanes. It is the single propagation
// kernel: the full pass above calls it for every op in topo order, and
// the incremental worklist (incremental.go) calls it for exactly the
// dirty cone — same code, so re-evaluated lanes are bitwise what a full
// pass would write.
func (st *batchState) propOp(i int) {
	g, K := st.g, st.K
	hiS, loS := st.hiS, st.loS
	op := &g.combOps[i]
	lo, hi := g.cellInLo[op.cellID], g.cellInLo[op.cellID+1]
	ob, cb := int(op.out)*K, int(op.cellID)*K
	om := st.arrMax[ob : ob+K : ob+K]
	on := st.arrMin[ob : ob+K : ob+K]
	dx := st.dmax[cb : cb+K]
	dn := st.dmin[cb : cb+K]
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

// delaysForCell recomputes one cell's factor and delay lanes — the
// incremental engine's per-cell form of computeDelays. It must mirror
// computeDelays bitwise: same interpolation expression over the same
// tabulated values in the same order (the grid SoA re-layout copies
// values verbatim, so reading the library rows directly interpolates the
// identical operands). The differential tests and FuzzIncrementalSTA
// hold the two to byte-identical Results.
func (st *batchState) delaysForCell(cfg BatchConfig, libs []*aging.Library, scale float64, anyAged bool, i int) {
	g, K := st.g, st.K
	t := cfg.Base.Timing[g.kind[i]]
	base := i * K
	dn := st.dmin[base : base+K : base+K]
	dx := st.dmax[base : base+K : base+K]
	if !anyAged {
		for k := range dn {
			st.factorFlat[k*g.numCells+i] = 1
			dn[k] = t.DelayMin * scale
			dx[k] = t.DelayMax * scale
		}
		return
	}
	var sp float64
	if cfg.Profile != nil {
		sp = cfg.Profile.SP[g.outNet[i]]
	}
	for k, lib := range libs {
		if lib == nil {
			st.factorFlat[k*g.numCells+i] = 1
			dn[k] = t.DelayMin * scale
			dx[k] = t.DelayMax * scale
			continue
		}
		row := lib.FactorRow(g.kind[i])
		last := len(row) - 1
		var s0, s1, omf, frac float64
		if sp <= 0 || sp >= 1 {
			ci := 0
			if sp >= 1 {
				ci = last
			}
			s0, s1 = row[ci], row[ci]
			omf, frac = 1, 0
		} else {
			pos := sp * float64(last)
			i0 := int(pos)
			frac = pos - float64(i0)
			omf = 1 - frac
			s0, s1 = row[i0], row[i0+1]
		}
		f := s0*omf + s1*frac
		st.factorFlat[k*g.numCells+i] = f
		dn[k] = t.DelayMin * f * scale
		dx[k] = t.DelayMax * f * scale
	}
}

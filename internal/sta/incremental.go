package sta

import (
	"fmt"

	"repro/internal/aging"
	"repro/internal/netlist"
)

// This file is the incremental re-timing path of the batched STA engine.
// A full AnalyzeCorners pass recomputes every cell's delay and every
// net's arrival even when only a handful of signal probabilities moved —
// the common shape of profile refinement, instrumentation sweeps and
// adjacent-corner onset bisection. Incremental keeps the whole
// evaluation state (delay, clock and arrival lanes) alive between
// analyses and, per update, recomputes only the forward fanout cone of
// the cells whose delays actually changed: changed cells seed a worklist
// of combinational-op positions, drained in ascending topological order
// through the same propOp kernel the full pass runs, and propagation
// stops wherever a recomputed arrival is bitwise unchanged. Results are
// byte-identical to a from-scratch AnalyzeCorners — arrivals outside the
// cone already hold the values a full pass would rewrite from identical
// operands, and cone members are re-evaluated by the identical kernel —
// a contract enforced by differential test and FuzzIncrementalSTA, in
// the same proof style as the batched engine itself.

// Incremental is a persistent multi-corner STA over one netlist: one
// full evaluation at construction, then cone-sized re-analyses as the SP
// profile or the corner set moves. Not safe for concurrent use.
type Incremental struct {
	g       *TimingGraph
	cfg     BatchConfig
	corners []Corner
	libs    []*aging.Library
	anyAged bool
	scale   float64
	K       int
	st      *batchState

	// clockMaps caches the per-corner endpoint clock-arrival maps; nil
	// after an update that touched a clock cell's delay.
	clockMaps []map[netlist.CellID]float64

	// Factor double-buffer. Results hands out zero-copy views into the
	// live factorFlat and marks it escaped; the next update swaps in the
	// spare buffer, patch-copying only the cells whose factors were
	// written since the previous swap (the touched list) — so an escaped
	// Result's Factor columns are never written again, at O(touched*K)
	// patch cost instead of an O(cells*K) snapshot copy per Results.
	spare     []float64
	touched   []int32
	inTouched []bool
	escaped   bool

	dirty []bool  // per combOps position: queued in heap
	heap  []int32 // min-heap of dirty positions (ascending topo order)
	oldHi []float64
	oldLo []float64

	// LastRetimed is the number of combinational ops re-evaluated by the
	// most recent update — the measured cone size (whole-netlist counts
	// mean the update degenerated to a full propagation).
	LastRetimed int

	closed bool
}

// NewIncremental compiles (or reuses) nl's timing graph, runs one full
// batched evaluation and returns the persistent analysis. The caller
// owns the lifetime: Close releases the pooled evaluation slab.
// cfg.Profile is referenced, not copied — UpdateSP expects the caller to
// mutate it in place and report which nets moved.
func NewIncremental(nl *netlist.Netlist, cfg BatchConfig, corners []Corner) *Incremental {
	K := len(corners)
	if K == 0 {
		panic("sta: NewIncremental needs at least one corner")
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 1
	}
	g := CachedGraph(nl)
	libs := cornerLibs(nl.Name, cfg, corners)
	inc := &Incremental{
		g:         g,
		cfg:       cfg,
		corners:   append([]Corner(nil), corners...),
		libs:      libs,
		scale:     scale,
		K:         K,
		st:        newBatchState(g, K),
		dirty:     make([]bool, len(g.combOps)),
		inTouched: make([]bool, g.numCells),
		oldHi:     make([]float64, K),
		oldLo:     make([]float64, K),
	}
	for _, lib := range libs {
		if lib != nil {
			inc.anyAged = true
		}
	}
	inc.st.computeDelays(cfg, libs, scale)
	inc.st.computeClockArrivals()
	inc.st.propagate()
	inc.LastRetimed = len(g.combOps)
	return inc
}

// Close returns the pooled evaluation slab. The Incremental must not be
// used afterwards; Results already returned remain valid (they hold no
// views into the slab).
func (inc *Incremental) Close() {
	if !inc.closed {
		inc.st.release()
		inc.closed = true
	}
}

// Results runs the reporting pass — endpoint checks, violating-path
// enumeration, per-corner merge — over the current evaluation state and
// returns one Result per corner, byte-identical to what a fresh
// AnalyzeCorners with the same profile and corners would return. The
// embedded factor columns are zero-copy views into the live factor
// buffer; handing them out marks the buffer escaped, and the next update
// retires it to the double-buffer's read-only side — so later updates
// never mutate an escaped Result.
func (inc *Incremental) Results() []*Result {
	st, nc := inc.st, inc.g.numCells
	cols := make([][]float64, inc.K)
	for k := range cols {
		cols[k] = st.factorFlat[k*nc : (k+1)*nc : (k+1)*nc]
	}
	inc.escaped = true
	if inc.clockMaps == nil {
		inc.clockMaps = clockArrivalMaps(inc.g, st)
	}
	return checkAndEnumerate(inc.g, st, inc.cfg, inc.corners, inc.libs, cols, inc.clockMaps)
}

// beginUpdate makes the live factor buffer private before the first
// write of an update batch. If the current buffer escaped via Results,
// the spare buffer — which differs from the live one only at the cells
// touched since the previous swap — is patched at those cells and
// swapped in; the escaped buffer is never written again. The first swap
// clones the whole buffer; every later one costs O(touched * K).
func (inc *Incremental) beginUpdate() {
	if !inc.escaped {
		return
	}
	st := inc.st
	if inc.spare == nil {
		inc.spare = append([]float64(nil), st.factorFlat...)
	} else {
		K, nc := inc.K, inc.g.numCells
		for _, ci := range inc.touched {
			for k := 0; k < K; k++ {
				inc.spare[k*nc+int(ci)] = st.factorFlat[k*nc+int(ci)]
			}
		}
	}
	for _, ci := range inc.touched {
		inc.inTouched[ci] = false
	}
	inc.touched = inc.touched[:0]
	st.factorFlat, inc.spare = inc.spare, st.factorFlat
	nc := inc.g.numCells
	for k := range st.factorC {
		st.factorC[k] = st.factorFlat[k*nc : (k+1)*nc : (k+1)*nc]
	}
	inc.escaped = false
}

// UpdateSP re-times after a sparse profile change: the caller has
// already written the new signal probabilities into cfg.Profile.SP and
// passes the net IDs whose SP moved. Only cells driving those nets get
// their delays recomputed, and only their forward fanout cones are
// re-propagated. Returns the refreshed per-corner Results.
func (inc *Incremental) UpdateSP(changed []netlist.NetID) []*Result {
	inc.beginUpdate()
	clocksDirty := false
	for _, n := range changed {
		cid := inc.g.driver[n]
		if cid == netlist.NoCell {
			continue // primary input: no cell's delay is keyed by this net
		}
		inc.touchCell(int(cid), &clocksDirty)
	}
	inc.finishUpdate(clocksDirty)
	return inc.Results()
}

// SetCorners moves the analysis to a new corner set of the same size
// (re-characterizing the aged libraries), re-timing only the cones whose
// delays actually changed between the corner sets — cells whose factors
// are bitwise stable across adjacent corners (ties, saturated SP bins,
// fresh lanes) keep their arrivals without re-propagation.
func (inc *Incremental) SetCorners(corners []Corner) []*Result {
	if len(corners) != inc.K {
		panic(fmt.Sprintf("sta: SetCorners with %d corners on a %d-corner Incremental", len(corners), inc.K))
	}
	inc.beginUpdate()
	inc.corners = append(inc.corners[:0], corners...)
	inc.libs = cornerLibs(inc.g.nl.Name, inc.cfg, corners)
	inc.anyAged = false
	for _, lib := range inc.libs {
		if lib != nil {
			inc.anyAged = true
		}
	}
	clocksDirty := false
	for i := 0; i < inc.g.numCells; i++ {
		inc.touchCell(i, &clocksDirty)
	}
	inc.finishUpdate(clocksDirty)
	return inc.Results()
}

// touchCell recomputes cell i's delay lanes and, when they changed
// bitwise, seeds the re-timing worklist: a combinational cell enqueues
// its own op, a flip-flop refreshes its launch (Q) arrival and enqueues
// the readers, a clock cell dirties the whole clock network.
func (inc *Incremental) touchCell(i int, clocksDirty *bool) {
	st, K := inc.st, inc.K
	if !inc.inTouched[i] {
		inc.inTouched[i] = true
		inc.touched = append(inc.touched, int32(i))
	}
	base := i * K
	copy(inc.oldHi, st.dmax[base:base+K])
	copy(inc.oldLo, st.dmin[base:base+K])
	st.delaysForCell(inc.cfg, inc.libs, inc.scale, inc.anyAged, i)
	if lanesEqual(inc.oldHi, st.dmax[base:base+K]) && lanesEqual(inc.oldLo, st.dmin[base:base+K]) {
		return
	}
	g := inc.g
	switch g.class[i] {
	case classComb:
		inc.seed(g.combPos[i])
	case classDFF:
		inc.refreshEndpointQ(i)
	case classStop:
		if g.kind[i].IsClock() {
			*clocksDirty = true
		}
		// Ties: no timed arrival, no cone.
	}
}

// refreshEndpointQ rewrites DFF i's launch arrivals (clock arrival plus
// clk-to-q delay, the same expression the full pass initializes
// endpoints with) and seeds the Q net's readers if they moved.
func (inc *Incremental) refreshEndpointQ(i int) {
	st, g, K := inc.st, inc.g, inc.K
	q, clk := g.outNet[i], g.clkNet[i]
	qb, cb, kb := int(q)*K, i*K, int(clk)*K
	am := st.arrMax[qb : qb+K : qb+K]
	an := st.arrMin[qb : qb+K : qb+K]
	ck := st.clk[kb : kb+K]
	dx := st.dmax[cb : cb+K]
	dn := st.dmin[cb : cb+K]
	changed := false
	for k := range am {
		hi := ck[k] + dx[k]
		lo := ck[k] + dn[k]
		if hi != am[k] || lo != an[k] {
			changed = true
		}
		am[k] = hi
		an[k] = lo
	}
	if changed {
		inc.seedReaders(q)
	}
}

// finishUpdate drains the worklist. If a clock cell's delay changed the
// clock network is recomputed in full first (it is cheap relative to the
// data network, and its arrivals feed every endpoint), every launch
// arrival is refreshed, and the cached clock-arrival maps are dropped.
func (inc *Incremental) finishUpdate(clocksDirty bool) {
	st, g := inc.st, inc.g
	if clocksDirty {
		st.computeClockArrivals()
		inc.clockMaps = nil
		for ei := range g.endpoints {
			inc.refreshEndpointQ(int(g.endpoints[ei].cellID))
		}
	}
	retimed := 0
	for len(inc.heap) > 0 {
		p := inc.heapPop()
		inc.dirty[p] = false
		op := &g.combOps[p]
		ob := int(op.out) * inc.K
		copy(inc.oldHi, st.arrMax[ob:ob+inc.K])
		copy(inc.oldLo, st.arrMin[ob:ob+inc.K])
		st.propOp(int(p))
		retimed++
		if !lanesEqual(inc.oldHi, st.arrMax[ob:ob+inc.K]) || !lanesEqual(inc.oldLo, st.arrMin[ob:ob+inc.K]) {
			inc.seedReaders(op.out)
		}
	}
	inc.LastRetimed = retimed
}

func lanesEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seedReaders enqueues every combinational op reading net n through a
// data pin. Readers sit at higher topological positions than n's driver,
// so the ascending drain evaluates each cone member exactly once.
func (inc *Incremental) seedReaders(n netlist.NetID) {
	g := inc.g
	for j := g.fanLo[n]; j < g.fanLo[n+1]; j++ {
		inc.seed(g.fanOp[j])
	}
}

func (inc *Incremental) seed(p int32) {
	if p < 0 || inc.dirty[p] {
		return
	}
	inc.dirty[p] = true
	inc.heapPush(p)
}

// Arrival lanes never hold NaN, so != above is a pure bitwise-change
// test (no float equality subtlety: identical operands through identical
// expressions reproduce identical bits, which is the invariant the
// worklist prunes on).

func (inc *Incremental) heapPush(p int32) {
	h := append(inc.heap, p)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	inc.heap = h
}

func (inc *Incremental) heapPop() int32 {
	h := inc.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	inc.heap = h
	return top
}

package sta

import "repro/internal/netlist"

// This file is the incremental re-timing path of the batched STA
// engine. A full AnalyzeCorners pass recomputes every cell's delay
// and every net's arrival even when only a handful of signal
// probabilities moved — the common shape of profile refinement and
// instrumentation sweeps. Incremental keeps the whole evaluation
// state (clock and arrival lanes) alive between analyses and, per
// update, recomputes only the forward fanout cone of the cells whose
// factors, and so delays, actually changed: changed cells seed a
// worklist of combinational-op positions, drained in ascending
// topological order through the same propOp kernel the full pass
// runs, and propagation stops wherever a recomputed arrival is
// bitwise unchanged. Results are byte-identical to a from-scratch
// AnalyzeCorners — arrivals outside the cone already hold the values
// a full pass would rewrite from identical operands, and cone members
// are re-evaluated by the identical kernel — a contract enforced by
// differential test and FuzzIncrementalSTA, in the same proof style
// as the batched engine itself.

// Incremental is a persistent multi-corner STA over one netlist: one
// full evaluation at construction, then cone-sized re-analyses as the SP
// profile moves. Not safe for concurrent use.
type Incremental struct {
	a  *Annotation // owned: updates rewrite its factors
	st *batchState

	// Factor double-buffer, behind a.factor. Results hands out zero-copy
	// views into the live factor buffer and marks it escaped; the next
	// update swaps in the spare buffer, patch-copying only the cells whose
	// factors were written since the previous swap (the touched list) — so
	// an escaped Result's Factor columns are never written again, at
	// O(touched*K) patch cost instead of an O(cells*K) snapshot copy per
	// Results.
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

// NewIncremental compiles (or reuses) nl's timing graph, builds its
// fanout tables if no earlier Incremental did, runs one full batched
// evaluation and returns the persistent analysis. The caller
// owns the lifetime: Close releases the pooled evaluation slab.
// cfg.Profile is referenced, not copied — UpdateSP expects the caller to
// mutate it in place and report which nets moved.
func NewIncremental(nl *netlist.Netlist, cfg BatchConfig, corners []Corner) *Incremental {
	K := len(corners)
	if K == 0 {
		panic("sta: NewIncremental needs at least one corner")
	}
	a := Annotate(nl, cfg, corners)
	a.g.fanOnce.Do(a.g.buildFanout)
	return &Incremental{
		a:           a,
		st:          a.evaluate(),
		dirty:       make([]bool, len(a.g.combOps)),
		inTouched:   make([]bool, a.g.numCells),
		oldHi:       make([]float64, K),
		oldLo:       make([]float64, K),
		LastRetimed: len(a.g.combOps),
	}
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
	inc.escaped = true
	return inc.a.check(inc.st)
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
	a := inc.a
	if inc.spare == nil {
		inc.spare = append([]float64(nil), a.factor...)
	} else {
		nc := a.g.numCells
		for _, ci := range inc.touched {
			for k := 0; k < inc.st.K; k++ {
				inc.spare[k*nc+int(ci)] = a.factor[k*nc+int(ci)]
			}
		}
	}
	for _, ci := range inc.touched {
		inc.inTouched[ci] = false
	}
	inc.touched = inc.touched[:0]
	a.factor, inc.spare = inc.spare, a.factor
	inc.st.factor = a.factor
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
		cid := inc.a.g.driver[n]
		if cid == netlist.NoCell {
			continue // primary input: no cell's delay is keyed by this net
		}
		inc.touchCell(int(cid), &clocksDirty)
	}
	inc.finishUpdate(clocksDirty)
	return inc.Results()
}

// touchCell re-interpolates cell i's factor lanes and, when they
// changed bitwise (a delay is a pure function of its factor), seeds the
// re-timing worklist: a combinational cell enqueues its own op, a
// flip-flop refreshes its launch (Q) arrival and enqueues the readers,
// a clock cell dirties the whole clock network. The old lanes wait in
// the arrival scratch, which the drain refills before it reads it.
func (inc *Incremental) touchCell(i int, clocksDirty *bool) {
	if !inc.inTouched[i] {
		inc.inTouched[i] = true
		inc.touched = append(inc.touched, int32(i))
	}
	a, old := inc.a, inc.oldHi
	nc := a.g.numCells
	for k := range old {
		old[k] = a.factor[k*nc+i]
	}
	a.interpolate(i, i+1)
	changed := false
	for k, f := range old {
		changed = changed || f != a.factor[k*nc+i]
	}
	if !changed {
		return
	}
	g := a.g
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

// refreshEndpointQ rewrites DFF i's launch arrivals with the full
// pass's launch and seeds the Q net's readers if they moved.
func (inc *Incremental) refreshEndpointQ(i int) {
	if inc.st.launch(i) {
		inc.seedReaders(inc.a.g.outNet[i])
	}
}

// finishUpdate drains the worklist. If a clock cell's delay changed the
// clock network is recomputed in full first (it is cheap relative to the
// data network, and its arrivals feed every endpoint) and every launch
// arrival is refreshed.
func (inc *Incremental) finishUpdate(clocksDirty bool) {
	st, g, K := inc.st, inc.a.g, inc.st.K
	if clocksDirty {
		st.computeClockArrivals()
		for ei := range g.endpoints {
			inc.refreshEndpointQ(int(g.endpoints[ei].cellID))
		}
	}
	retimed := 0
	for len(inc.heap) > 0 {
		p := inc.heapPop()
		inc.dirty[p] = false
		op := &g.combOps[p]
		ob := int(op.out) * K
		copy(inc.oldHi, st.arrMax[ob:ob+K])
		copy(inc.oldLo, st.arrMin[ob:ob+K])
		st.propOp(int(p))
		retimed++
		if !lanesEqual(inc.oldHi, st.arrMax[ob:ob+K]) || !lanesEqual(inc.oldLo, st.arrMin[ob:ob+K]) {
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
	g := inc.a.g
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

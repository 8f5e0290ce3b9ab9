package sta

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// This file is the scalar STA engine the batched one replaced. It lives
// in a test file on purpose: nothing in production calls it, and
// TestBatchedMatchesScalar, FuzzBatchedVsScalar and
// TestWorstPathMatchesOracle hold AnalyzeCorners and WorstPath to its
// Results bit for bit.

// Analyze runs the timing analysis.
func Analyze(nl *netlist.Netlist, cfg Config) *Result {
	a := newAnalysis(nl, cfg)
	a.computeCellTiming()
	a.computeClockArrivals()
	a.propagateArrivals()
	return a.check()
}

type analysis struct {
	nl  *netlist.Netlist
	cfg Config

	scale  float64
	dmin   []float64 // per cell, aged+scaled
	dmax   []float64
	factor []float64
	setup  float64 // scaled DFF setup window
	hold   float64

	clkLate  []float64 // per cell (DFF): late clock arrival at CLK pin
	clkEarly []float64

	// Per-net data arrival times; -inf/+inf mean "no timed path".
	arrMax []float64
	arrMin []float64
}

func newAnalysis(nl *netlist.Netlist, cfg Config) *analysis {
	a := &analysis{nl: nl, cfg: cfg, scale: cfg.Scale}
	if a.scale == 0 {
		a.scale = 1
	}
	if a.cfg.MaxPaths == 0 {
		a.cfg.MaxPaths = 200000
	}
	if a.cfg.PerEndpoint == 0 {
		a.cfg.PerEndpoint = 400
	}
	return a
}

func (a *analysis) baseLib() *cell.Library {
	if a.cfg.Aged != nil {
		return a.cfg.Aged.Base
	}
	return a.cfg.Base
}

func (a *analysis) computeCellTiming() {
	nl := a.nl
	base := a.baseLib()
	a.dmin = make([]float64, len(nl.Cells))
	a.dmax = make([]float64, len(nl.Cells))
	a.factor = make([]float64, len(nl.Cells))
	for i, c := range nl.Cells {
		t := base.Timing[c.Kind]
		f := 1.0
		if a.cfg.Aged != nil {
			sp := a.cfg.Profile.SP[c.Out]
			f = a.cfg.Aged.Factor(c.Kind, sp)
		}
		a.factor[i] = f
		a.dmin[i] = t.DelayMin * f * a.scale
		a.dmax[i] = t.DelayMax * f * a.scale
	}
	dff := base.Timing[cell.DFF]
	a.setup = dff.Setup * a.scale
	a.hold = dff.Hold * a.scale
}

// computeClockArrivals walks each DFF's clock pin up the clock network to
// the root, accumulating aged buffer delays. This is the clock
// phase-shift analysis of §3.2.2: asymmetric aging of gated subtrees
// shows up here as skew between flip-flops.
//
// Clock arrivals use a single corner (the aged maximum delay) for both
// launch and capture: branches of the same tree on the same die track
// each other, and signoff removes common-path pessimism. Skew between two
// flip-flops therefore comes only from genuinely different branch delays
// — nominal imbalance plus asymmetric aging — not from min/max corner
// spread.
func (a *analysis) computeClockArrivals() {
	nl := a.nl
	a.clkLate = make([]float64, len(nl.Cells))
	a.clkEarly = make([]float64, len(nl.Cells))
	// Clock cells appear in Topo() after the cells driving their inputs,
	// so one forward pass over a slice memo computes every clock net's
	// arrival — no recursion on deep clock chains, no map allocation.
	// Nets not driven by clock cells keep arrival 0, like the recursive
	// walk's default.
	arr := make([]float64, nl.NumNets)
	for _, cid := range nl.Topo() {
		c := &nl.Cells[cid]
		if c.Kind.IsClock() {
			arr[c.Out] = arr[c.In[0]] + a.dmax[cid]
		}
	}
	for i, c := range nl.Cells {
		if c.Kind == cell.DFF {
			v := arr[c.Clk]
			a.clkLate[i], a.clkEarly[i] = v, v
		}
	}
}

// propagateArrivals runs the forward block-based pass. Sources are DFF
// outputs (launch clock + clk-to-q); primary inputs, tie cells and the
// clock network carry no data arrival (I/O paths are unconstrained, as
// the paper's module-level analysis assumes registered boundaries).
func (a *analysis) propagateArrivals() {
	nl := a.nl
	a.arrMax = make([]float64, nl.NumNets)
	a.arrMin = make([]float64, nl.NumNets)
	for n := range a.arrMax {
		a.arrMax[n] = -inf
		a.arrMin[n] = inf
	}
	for i, c := range nl.Cells {
		if c.Kind == cell.DFF {
			a.arrMax[c.Out] = a.clkLate[i] + a.dmax[i]
			a.arrMin[c.Out] = a.clkEarly[i] + a.dmin[i]
		}
	}
	for _, cid := range nl.Topo() {
		c := &nl.Cells[cid]
		if c.Kind.IsClock() || c.Kind == cell.TIE0 || c.Kind == cell.TIE1 {
			continue
		}
		hi, lo := -inf, inf
		for _, in := range c.In {
			if a.arrMax[in] > hi {
				hi = a.arrMax[in]
			}
			if a.arrMin[in] < lo {
				lo = a.arrMin[in]
			}
		}
		if hi > -inf {
			a.arrMax[c.Out] = hi + a.dmax[cid]
		}
		if lo < inf {
			a.arrMin[c.Out] = lo + a.dmin[cid]
		}
	}
}

// check computes slacks at every DFF D pin, then enumerates violating
// paths.
func (a *analysis) check() *Result {
	nl := a.nl
	res := &Result{
		Config:       a.cfg,
		WNSSetup:     inf,
		WNSHold:      inf,
		Factor:       a.factor,
		ClockArrival: make(map[netlist.CellID]float64),
	}
	pairs := map[pairKey]*PairSummary{}
	budget := a.cfg.MaxPaths

	for i, c := range nl.Cells {
		if c.Kind != cell.DFF {
			continue
		}
		cid := netlist.CellID(i)
		res.ClockArrival[cid] = a.clkLate[i]
		d := c.In[0]

		// Setup: data (late) must beat the next capture edge (early).
		if a.arrMax[d] > -inf {
			required := a.cfg.PeriodPs + a.clkEarly[i] - a.setup
			slack := required - a.arrMax[d]
			if slack < res.WNSSetup {
				res.WNSSetup = slack
			}
			if slack < 0 {
				n, trunc := a.enumerate(cid, d, required, Setup, pairs, min(budget, a.cfg.PerEndpoint))
				res.NumSetupViolations += n
				budget -= n
				res.Truncated = res.Truncated || trunc
			}
		}

		// Hold: data (early) from the same edge must not race past the
		// capture edge (late) plus the hold window.
		if a.arrMin[d] < inf {
			required := a.clkLate[i] + a.hold
			slack := a.arrMin[d] - required
			if slack < res.WNSHold {
				res.WNSHold = slack
			}
			if slack < 0 {
				n, trunc := a.enumerate(cid, d, required, Hold, pairs, min(budget, a.cfg.PerEndpoint))
				res.NumHoldViolations += n
				budget -= n
				res.Truncated = res.Truncated || trunc
			}
		}
	}

	for _, p := range pairs {
		res.Pairs = append(res.Pairs, *p)
	}
	sortPairs(res.Pairs)
	return res
}

// enumerate counts every violating path into endpoint end (bounded DFS
// with arrival-time pruning) and folds them into the per-pair summaries.
// It returns the number found and whether the budget truncated the walk.
func (a *analysis) enumerate(end netlist.CellID, dNet netlist.NetID, required float64,
	t PathType, pairs map[pairKey]*PairSummary, budget int) (int, bool) {

	nl := a.nl
	found := 0
	truncated := false

	var dfs func(n netlist.NetID, suffix float64)
	dfs = func(n netlist.NetID, suffix float64) {
		if found >= budget {
			truncated = true
			return
		}
		if t == Setup {
			if a.arrMax[n] == -inf || a.arrMax[n]+suffix <= required {
				return // every completion meets timing
			}
		} else {
			if a.arrMin[n] == inf || a.arrMin[n]+suffix >= required {
				return
			}
		}
		d := nl.Driver(n)
		if d == netlist.NoCell {
			return
		}
		c := &nl.Cells[d]
		switch {
		case c.Kind == cell.DFF:
			var total, slack float64
			if t == Setup {
				total = a.clkLate[d] + a.dmax[d] + suffix
				slack = required - total
			} else {
				total = a.clkEarly[d] + a.dmin[d] + suffix
				slack = total - required
			}
			if slack >= 0 {
				return
			}
			found++
			key := pairKey{Pair: Pair{Start: d, End: end}, Type: t}
			s, ok := pairs[key]
			if !ok {
				s = &PairSummary{Pair: key.Pair, Type: t, WorstSlack: slack}
				pairs[key] = s
			}
			s.Paths++
			if slack < s.WorstSlack {
				s.WorstSlack = slack
			}
		case c.Kind.IsClock(), c.Kind == cell.TIE0, c.Kind == cell.TIE1:
			return
		default:
			var step float64
			if t == Setup {
				step = a.dmax[d]
			} else {
				step = a.dmin[d]
			}
			for _, in := range c.In {
				dfs(in, suffix+step)
			}
		}
	}
	dfs(dNet, 0)
	return found, truncated
}

// worstPathOracle is WorstPath as it was on the scalar arrival arrays.
func worstPathOracle(nl *netlist.Netlist, cfg Config, end netlist.CellID) (*PathReport, error) {
	a := newAnalysis(nl, cfg)
	a.computeCellTiming()
	a.computeClockArrivals()
	a.propagateArrivals()

	c := nl.Cells[end]
	if c.Kind != cell.DFF {
		return nil, fmt.Errorf("sta: endpoint %s is not a flip-flop", c.Name)
	}
	d := c.In[0]
	if a.arrMax[d] == -inf {
		return nil, fmt.Errorf("sta: endpoint %s has no timed path", c.Name)
	}
	rep := &PathReport{
		Type:       Setup,
		End:        end,
		EndName:    c.Name,
		CapturePs:  a.clkEarly[end],
		RequiredPs: cfg.PeriodPs + a.clkEarly[end] - a.setup,
		ArrivalPs:  a.arrMax[d],
	}
	rep.SlackPs = rep.RequiredPs - rep.ArrivalPs

	// Backtrack: at each net pick the driving cell, then the input pin
	// whose arrival dominates.
	var stages []PathStage
	n := d
	for {
		drv := nl.Driver(n)
		if drv == netlist.NoCell {
			return nil, fmt.Errorf("sta: path backtrack reached an input net %s", nl.NetName(n))
		}
		dc := &nl.Cells[drv]
		stages = append(stages, PathStage{
			Cell: drv, Name: dc.Name, Kind: dc.Kind,
			DelayPs: a.dmax[drv], ArrivalPs: a.arrMax[n], Factor: a.factor[drv],
		})
		if dc.Kind == cell.DFF {
			rep.Start = drv
			rep.StartName = dc.Name
			rep.LaunchPs = a.clkLate[drv]
			break
		}
		best := netlist.NoNet
		bestArr := -inf
		for _, in := range dc.In {
			if a.arrMax[in] > bestArr {
				bestArr = a.arrMax[in]
				best = in
			}
		}
		if best == netlist.NoNet {
			return nil, fmt.Errorf("sta: cell %s has no timed fanin", dc.Name)
		}
		n = best
	}
	// Reverse into launch-to-capture order.
	for i, j := 0, len(stages)-1; i < j; i, j = i+1, j-1 {
		stages[i], stages[j] = stages[j], stages[i]
	}
	rep.Stages = stages
	return rep, nil
}

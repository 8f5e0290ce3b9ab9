package sta

import (
	"fmt"
	"strings"

	"repro/internal/aging"
	"repro/internal/cell"
	"repro/internal/netlist"
)

// PathStage is one hop of a reported timing path.
type PathStage struct {
	Cell      netlist.CellID
	Name      string
	Kind      cell.Kind
	DelayPs   float64 // this cell's (aged, scaled) contribution
	ArrivalPs float64 // cumulative arrival after the cell
	Factor    float64 // the aging factor applied to this cell
}

// PathReport is the report_timing-style breakdown of the worst path into
// an endpoint — the artifact an engineer reads to see where the aged
// slack went.
type PathReport struct {
	Type       PathType
	Start, End netlist.CellID
	StartName  string
	EndName    string
	LaunchPs   float64 // launch clock arrival
	CapturePs  float64 // capture clock arrival
	RequiredPs float64
	ArrivalPs  float64
	SlackPs    float64
	Stages     []PathStage
}

// batch is cfg as the BatchConfig of a one-corner analysis: the aged
// library, or nil for a fresh corner, enters through Libs.
func (cfg Config) batch() BatchConfig {
	bc := BatchConfig{
		PeriodPs: cfg.PeriodPs, Scale: cfg.Scale, Base: cfg.Base, Profile: cfg.Profile,
		Libs: []*aging.Library{cfg.Aged}, MaxPaths: cfg.MaxPaths, PerEndpoint: cfg.PerEndpoint,
	}
	if cfg.Aged != nil {
		bc.Base = cfg.Aged.Base
	}
	return bc
}

// WorstPath re-times the netlist at the one corner cfg describes and
// backtracks the worst setup path into the given endpoint flip-flop,
// stage by stage.
func WorstPath(nl *netlist.Netlist, cfg Config, end netlist.CellID) (*PathReport, error) {
	c := nl.Cells[end]
	if c.Kind != cell.DFF {
		return nil, fmt.Errorf("sta: endpoint %s is not a flip-flop", c.Name)
	}
	// One corner of the batched engine: with K = 1 the corner-contiguous
	// layers are indexed by net or cell ID directly.
	bc := cfg.batch()
	scale := cfg.Scale
	if scale == 0 {
		scale = 1
	}
	g := CachedGraph(nl)
	st := newBatchState(g, 1)
	defer st.release() // the report copies values, it keeps no view of the slab
	st.computeDelays(bc, bc.Libs, scale)
	st.computeClockArrivals()
	st.propagate()

	d := c.In[0]
	if st.arrMax[d] == negInf {
		return nil, fmt.Errorf("sta: endpoint %s has no timed path", c.Name)
	}
	rep := &PathReport{
		Type:       Setup,
		End:        end,
		EndName:    c.Name,
		CapturePs:  st.clk[c.Clk],
		RequiredPs: cfg.PeriodPs + st.clk[c.Clk] - st.setup,
		ArrivalPs:  st.arrMax[d],
	}
	rep.SlackPs = rep.RequiredPs - rep.ArrivalPs

	// Backtrack: at each net pick the driving cell, then the input pin
	// whose arrival dominates (untimed pins hold -Inf and never do).
	var stages []PathStage
	n := d
	for {
		drv := g.driver[n]
		if drv == netlist.NoCell {
			return nil, fmt.Errorf("sta: path backtrack reached an input net %s", nl.NetName(n))
		}
		dc := &nl.Cells[drv]
		stages = append(stages, PathStage{
			Cell: drv, Name: dc.Name, Kind: dc.Kind,
			DelayPs: st.dmax[drv], ArrivalPs: st.arrMax[n], Factor: st.factorC[0][drv],
		})
		if dc.Kind == cell.DFF {
			rep.Start = drv
			rep.StartName = dc.Name
			rep.LaunchPs = st.clk[dc.Clk]
			break
		}
		best := netlist.NoNet
		bestArr := negInf
		for _, in := range dc.In {
			if st.arrMax[in] > bestArr {
				bestArr = st.arrMax[in]
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

// String renders the report in signoff-tool style.
func (r *PathReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "startpoint %s (clk %+0.1fps)  endpoint %s (clk %+0.1fps)\n",
		r.StartName, r.LaunchPs, r.EndName, r.CapturePs)
	fmt.Fprintf(&b, "%-24s %-8s %10s %10s %8s\n", "cell", "kind", "delay(ps)", "arrive(ps)", "aged(x)")
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "%-24s %-8s %10.1f %10.1f %8.4f\n",
			s.Name, s.Kind, s.DelayPs, s.ArrivalPs, s.Factor)
	}
	fmt.Fprintf(&b, "required %.1fps  arrival %.1fps  slack %+.1fps\n",
		r.RequiredPs, r.ArrivalPs, r.SlackPs)
	return b.String()
}

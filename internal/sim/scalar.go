package sim

import (
	"repro/internal/cell"
	"repro/internal/engine"
)

// settle propagates values through the compiled combinational logic
// (and the clock network) in program order, one bool per net: the
// reference engine.Packed's word kernels are held to. vals must have
// length p.NumNets.
func settle(p *engine.Program, vals []bool) {
	ops := p.Ops
	for _, r := range p.Runs {
		run := ops[r.Lo:r.Hi]
		switch r.Kind {
		case cell.TIE0:
			for i := range run {
				vals[run[i].Out] = false
			}
		case cell.TIE1:
			for i := range run {
				vals[run[i].Out] = true
			}
		case cell.BUF, cell.CLKBUF:
			for i := range run {
				vals[run[i].Out] = vals[run[i].In[0]]
			}
		case cell.INV:
			for i := range run {
				vals[run[i].Out] = !vals[run[i].In[0]]
			}
		case cell.AND2, cell.CLKGATE:
			for i := range run {
				vals[run[i].Out] = vals[run[i].In[0]] && vals[run[i].In[1]]
			}
		case cell.OR2:
			for i := range run {
				vals[run[i].Out] = vals[run[i].In[0]] || vals[run[i].In[1]]
			}
		case cell.NAND2:
			for i := range run {
				vals[run[i].Out] = !(vals[run[i].In[0]] && vals[run[i].In[1]])
			}
		case cell.NOR2:
			for i := range run {
				vals[run[i].Out] = !(vals[run[i].In[0]] || vals[run[i].In[1]])
			}
		case cell.XOR2:
			for i := range run {
				vals[run[i].Out] = vals[run[i].In[0]] != vals[run[i].In[1]]
			}
		case cell.XNOR2:
			for i := range run {
				vals[run[i].Out] = vals[run[i].In[0]] == vals[run[i].In[1]]
			}
		case cell.MUX2:
			for i := range run {
				if vals[run[i].In[2]] {
					vals[run[i].Out] = vals[run[i].In[1]]
				} else {
					vals[run[i].Out] = vals[run[i].In[0]]
				}
			}
		case cell.AOI21:
			for i := range run {
				vals[run[i].Out] = !((vals[run[i].In[0]] && vals[run[i].In[1]]) || vals[run[i].In[2]])
			}
		case cell.OAI21:
			for i := range run {
				vals[run[i].Out] = !((vals[run[i].In[0]] || vals[run[i].In[1]]) && vals[run[i].In[2]])
			}
		default:
			panic("sim: cannot evaluate " + r.Kind.String())
		}
	}
}

// stepDFFs applies the rising clock edge to every flip-flop whose
// (possibly gated) clock net is high: one pass over the program's DFF
// list captures the staged next-state into scratch, then a write-back
// publishes it. scratch must have length len(p.DFFs).
func stepDFFs(p *engine.Program, vals []bool, scratch []bool) {
	for i := range p.DFFs {
		f := &p.DFFs[i]
		if vals[f.Clk] {
			scratch[i] = vals[f.D]
		} else {
			scratch[i] = vals[f.Out]
		}
	}
	for i := range p.DFFs {
		vals[p.DFFs[i].Out] = scratch[i]
	}
}

// reset writes the reset state into vals: all nets 0, the clock root
// high (clock enabled), every DFF output at its Init value.
func reset(p *engine.Program, vals []bool) {
	for i := range vals {
		vals[i] = false
	}
	if p.ClockRoot >= 0 {
		vals[p.ClockRoot] = true
	}
	for i := range p.DFFs {
		vals[p.DFFs[i].Out] = p.DFFs[i].Init
	}
}

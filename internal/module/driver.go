package module

import (
	"repro/internal/engine"
	"repro/internal/netlist"
)

// Driver executes operations on a module's netlist (or on a failing
// variant of it) through the valid handshake, the way the surrounding CPU
// pipeline would. It is the bridge used both for golden-vs-netlist
// equivalence tests and for running lifted test cases against failing
// netlists.
type Driver struct {
	M *Module
	// Eng evaluates the netlist. Lane 0 is the driven unit; every input
	// is broadcast, so the other lanes only repeat it, and the SP
	// profile observes lane 0 alone.
	Eng *engine.Packed

	settled bool // no input or state changed since the last settle
}

// NewDriver drives the module's own netlist.
func NewDriver(m *Module) *Driver { return NewDriverOn(m, m.Netlist) }

// NewDriverOn drives an alternative netlist (typically a failing netlist
// produced by failure-model instrumentation) that shares the module's
// port protocol.
func NewDriverOn(m *Module, nl *netlist.Netlist) *Driver {
	e := engine.NewPacked(engine.Cached(nl))
	e.ObserveLanes(1)
	return &Driver{M: m, Eng: e}
}

// StallLimit is how many cycles past the nominal latency Exec waits for
// out_valid before declaring the unit hung. A real integration would be a
// watchdog; the bound only needs to exceed the pipeline depth. Exported
// because the packed fault-campaign driver (internal/inject) must wait
// the exact same number of cycles to classify a lane as stalled.
const StallLimit = 8

// set drives an input port.
func (d *Driver) set(port string, v uint32) {
	d.Eng.SetInput(port, uint64(v))
	d.settled = false
}

// out reads an output port of lane 0, settling first if anything
// changed since the last settle.
func (d *Driver) out(port string) uint32 {
	if !d.settled {
		d.Eng.Settle()
		d.settled = true
	}
	return uint32(d.Eng.Output(port, 0))
}

// step completes the cycle: at most one settle, then the clock edge.
func (d *Driver) step() {
	if !d.settled {
		d.Eng.Settle()
	}
	d.Eng.Edge()
	d.settled = false
}

// Exec presents one operation and waits for the result. ok=false means
// the unit never raised out_valid — the stall ("S") failure mode of the
// paper's Table 6.
func (d *Driver) Exec(op, a, b uint32) (result, flags uint32, ok bool) {
	d.set(PortInValid, 1)
	d.set(PortOp, op)
	d.set(PortA, a)
	d.set(PortB, b)
	d.step()
	d.set(PortInValid, 0)
	for i := 0; i < d.M.Latency+StallLimit; i++ {
		if d.out(PortOutValid) == 1 {
			return d.out(PortResult), d.out(PortFlags), true
		}
		d.step()
	}
	return 0, 0, false
}

// ExecPipelined presents a stream of back-to-back operations (one per
// cycle) and collects the results in order. It exercises the pipeline the
// way a representative workload does during SP profiling. ok=false if
// fewer results than operations emerged.
func (d *Driver) ExecPipelined(ops []uint32, as, bs []uint32) (results []uint32, flagsOut []uint32, ok bool) {
	total := len(ops)
	collected := 0
	for cyc := 0; cyc < total+d.M.Latency+StallLimit && collected < total; cyc++ {
		if cyc < total {
			d.set(PortInValid, 1)
			d.set(PortOp, ops[cyc])
			d.set(PortA, as[cyc])
			d.set(PortB, bs[cyc])
		} else {
			d.set(PortInValid, 0)
		}
		if d.out(PortOutValid) == 1 {
			results = append(results, d.out(PortResult))
			flagsOut = append(flagsOut, d.out(PortFlags))
			collected++
		}
		d.step()
	}
	return results, flagsOut, collected == total
}

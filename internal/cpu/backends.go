package cpu

import "repro/internal/module"

// OpRecord is one execution-unit operation observed during a workload
// run; recorded traces are replayed through the gate-level module during
// Signal Probability Simulation.
type OpRecord struct {
	Op   uint32
	A, B uint32
}

// Recording wraps a unit (the golden model, a gate-level Driver, another
// wrapper) and records every operation presented to it.
type Recording struct {
	Inner module.Unit
	Trace []OpRecord
}

// Exec implements module.Unit.
func (r *Recording) Exec(op, a, b uint32) (uint32, uint32, bool) {
	r.Trace = append(r.Trace, OpRecord{op, a, b})
	return r.Inner.Exec(op, a, b)
}

// Unit addresses the backend slot of the named execution unit ("ALU" or
// "FPU"), so code that works on a module.Module installs or wraps its
// backend without branching on which unit it is.
func (c *CPU) Unit(name string) *module.Unit {
	switch name {
	case "ALU":
		return &c.ALU
	case "FPU":
		return &c.FPU
	}
	panic("cpu: no execution unit named " + name)
}

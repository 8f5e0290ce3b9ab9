package inject

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/module"
)

// lfsr16 is a 16-bit Fibonacci LFSR (taps 16,14,13,11 — the same
// polynomial as the fault package's embedded hardware LFSR), stepped
// once per unit operation to gate intermittent flips.
type lfsr16 uint16

func (l *lfsr16) step() uint16 {
	s := uint16(*l)
	fb := (s>>15 ^ s>>13 ^ s>>12 ^ s>>10) & 1
	s = s<<1 | fb
	*l = lfsr16(s)
	return s
}

// flipper corrupts result bits of the golden model — the behavioural
// injector for the Transient and Intermittent classes. It is cheap:
// only the flip condition is evaluated per op, so these classes run at
// behavioural speed even inside a full embedded workload.
type flipper struct {
	golden module.GoldenFunc
	bit    uint8

	transient bool
	opIndex   uint32
	n         uint32

	lfsr   lfsr16
	period uint32
}

// Exec implements module.Unit.
func (f *flipper) Exec(op, a, b uint32) (uint32, uint32, bool) {
	r, fl := f.golden(op, a, b)
	if f.transient {
		if f.n == f.opIndex {
			r ^= 1 << f.bit
		}
		f.n++
	} else if uint32(f.lfsr.step())%f.period == 0 {
		r ^= 1 << f.bit
	}
	return r, fl, true
}

// Attach installs a behavioural-class spec's faulty backend on the CPU's
// unit seam: the golden model wrapped with a bit flipper. Netlist
// classes have no backend of their own — they run as lanes of a packed
// wave (packed.go).
func Attach(m *module.Module, c *cpu.CPU, s Spec) error {
	if s.Unit != m.Name {
		return fmt.Errorf("inject: spec targets %s but module is %s", s.Unit, m.Name)
	}
	fl := &flipper{golden: m.Golden, bit: s.Bit}
	switch s.Class {
	case Transient:
		fl.transient = true
		fl.opIndex = s.OpIndex
	case Intermittent:
		fl.lfsr = lfsr16(s.Seed)
		fl.period = uint32(s.Period)
	default:
		return fmt.Errorf("inject: class %v has no behavioural backend", s.Class)
	}
	*c.Unit(m.Name) = fl
	return nil
}

// checkSite bounds-checks a failure site against the module's netlist:
// both cells must exist and be flip-flops, or the overlay would
// instrument garbage (or panic on an out-of-range ID).
func checkSite(m *module.Module, f fault.Spec) error {
	nl := m.Netlist
	for _, id := range []int{int(f.Start), int(f.End)} {
		if id < 0 || id >= len(nl.Cells) {
			return fmt.Errorf("inject: cell %d out of range for %s (%d cells)", id, m.Name, len(nl.Cells))
		}
		if nl.Cells[id].Kind != cell.DFF {
			return fmt.Errorf("inject: cell %d (%s) is not a flip-flop", id, nl.Cells[id].Name)
		}
	}
	return nil
}

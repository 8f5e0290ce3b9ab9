package inject

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sta"
)

// TestSpecStringSeparatesSpecs holds Spec.String, the key a checkpoint
// stores each result under and the campaign dedups by, to injectivity
// over the fields each class carries: for a spec of each class, every
// one-field change (the unit; each site's type, start, end, C and edge;
// the number and order of sites; the op index, bit, seed and period)
// gives a string no other spec of the set has, and every string starts
// with its own class's prefix and no other's.
func TestSpecStringSeparatesSpecs(t *testing.T) {
	a := fault.Spec{Type: sta.Setup, Start: 12, End: 45, C: fault.C1, Edge: fault.AnyChange}
	b := fault.Spec{Type: sta.Hold, Start: 3, End: 9, C: fault.CRandom, Edge: fault.RisingEdge}
	c := fault.Spec{Type: sta.Setup, Start: 7, End: 30, C: fault.C0, Edge: fault.FallingEdge}
	siteEdits := []struct {
		name string
		edit func(*fault.Spec)
	}{
		{"type", func(f *fault.Spec) { f.Type = sta.Hold - f.Type }}, // setup <-> hold
		{"start", func(f *fault.Spec) { f.Start++ }},
		{"end", func(f *fault.Spec) { f.End++ }},
		{"C", func(f *fault.Spec) { f.C = (f.C + 1) % 3 }},
		{"edge", func(f *fault.Spec) { f.Edge = (f.Edge + 1) % 3 }},
	}
	bases := []Spec{
		{Class: StuckAt, Unit: "ALU", Faults: []fault.Spec{a}},
		{Class: MultiFault, Unit: "FPU", Faults: []fault.Spec{a, b}},
		{Class: Transient, Unit: "ALU", OpIndex: 37, Bit: 12},
		{Class: Intermittent, Unit: "FPU", Bit: 5, Seed: 44193, Period: 7},
	}

	seen := map[string]string{} // spec string -> which spec rendered it
	add := func(name string, s Spec) {
		str := s.String()
		if prev, ok := seen[str]; ok {
			t.Errorf("%s and %s both render %q", prev, name, str)
		}
		seen[str] = name
		for _, cl := range Classes() {
			if strings.HasPrefix(str, cl.String()+":") != (cl == s.Class) {
				t.Errorf("%s renders %q, which does not start with its class's prefix alone", name, str)
			}
		}
	}
	for _, base := range bases {
		variant := func(edit func(*Spec)) Spec {
			s := base
			s.Faults = slices.Clone(base.Faults)
			edit(&s)
			return s
		}
		name := base.Class.String()
		add(name, base)
		add(name+" unit", variant(func(s *Spec) { s.Unit = map[string]string{"ALU": "FPU", "FPU": "ALU"}[s.Unit] }))
		switch base.Class {
		case StuckAt, MultiFault:
			for i := range base.Faults {
				for _, e := range siteEdits {
					add(fmt.Sprintf("%s site %d %s", name, i, e.name), variant(func(s *Spec) { e.edit(&s.Faults[i]) }))
				}
			}
			add(name+" one more site", variant(func(s *Spec) { s.Faults = append(s.Faults, c) }))
			if len(base.Faults) > 1 {
				add(name+" one site fewer", variant(func(s *Spec) { s.Faults = s.Faults[:1] }))
				add(name+" sites reordered", variant(func(s *Spec) { slices.Reverse(s.Faults) }))
			}
		case Transient:
			add(name+" op index", variant(func(s *Spec) { s.OpIndex++ }))
			add(name+" bit", variant(func(s *Spec) { s.Bit++ }))
		case Intermittent:
			add(name+" bit", variant(func(s *Spec) { s.Bit++ }))
			add(name+" seed", variant(func(s *Spec) { s.Seed++ }))
			add(name+" period", variant(func(s *Spec) { s.Period++ }))
		}
	}
}

package inject

import (
	"strings"

	"repro/internal/cpu"
	"repro/internal/guard"
)

// attachGuards wraps the backend installed on c for the campaign's unit
// with the observe-only guard recorder and returns the verdict log, or
// nil when the campaign runs unguarded. The wrapper goes outermost —
// outside the divergence tracker — so it sees exactly the responses the
// CPU consumes; since both wrappers are observe-only the order is
// behaviour-neutral.
func attachGuards(cfg *Config, c *cpu.CPU) *guard.Log {
	if len(cfg.guardSet) == 0 {
		return nil
	}
	log := guard.NewLog(cfg.guardSet)
	u := c.Unit(cfg.Module.Name)
	*u = &guard.Guarded{Inner: *u, Log: log}
	return log
}

// guardNames renders a resolved guard set as its canonical name list.
func guardNames(set []guard.Guard) []string {
	out := make([]string, len(set))
	for i, g := range set {
		out[i] = g.Name
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func describeGuards(names []string) string {
	if len(names) == 0 {
		return "without guards"
	}
	return "with guards " + strings.Join(names, ",")
}

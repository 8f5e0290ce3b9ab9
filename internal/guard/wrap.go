package guard

import "repro/internal/module"

// Log accumulates guard verdicts over one run. Guards are observe-only:
// a Log never influences execution, so a guarded run's cycle counts,
// results, and state digests are bit-identical to an unguarded one.
type Log struct {
	Set      []Guard  // guards being checked, canonical order
	Ops      uint64   // architecturally-completed unit ops observed
	Fires    uint64   // total failed checks across all guards
	PerGuard []uint64 // failed checks per guard, parallel to Set
	First    string   // name of the guard that fired first
	FirstOp  uint64   // 1-based op index of the first fire; 0 = never
}

// NewLog prepares a verdict log for the guard set.
func NewLog(set []Guard) *Log {
	return &Log{Set: set, PerGuard: make([]uint64, len(set))}
}

// Fired reports whether any guard has fired.
func (l *Log) Fired() bool { return l.Fires > 0 }

// Observe checks one completed unit operation against every guard in
// the set. Ops that never complete (ok=false: a hung handshake, caught
// by the CPU's stall watchdog) carry no architectural result to check.
func (l *Log) Observe(op, a, b, r, f uint32, ok bool) {
	if !ok {
		return
	}
	l.Ops++
	for i := range l.Set {
		if !l.Set[i].Check(op, a, b, r, f) {
			l.Fires++
			l.PerGuard[i]++
			if l.FirstOp == 0 {
				l.First = l.Set[i].Name
				l.FirstOp = l.Ops
			}
		}
	}
}

// Guarded wraps a unit (the golden model, a gate-level Driver, another
// wrapper) and checks every operation it completes against Log.Set.
type Guarded struct {
	Inner module.Unit
	Log   *Log
}

// Exec implements module.Unit.
func (g *Guarded) Exec(op, a, b uint32) (uint32, uint32, bool) {
	r, f, ok := g.Inner.Exec(op, a, b)
	g.Log.Observe(op, a, b, r, f, ok)
	return r, f, ok
}

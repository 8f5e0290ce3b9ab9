package engine

import (
	"sync/atomic"

	"repro/internal/netlist"
)

// programKey is Cached's slot in netlist.Netlist.Memo.
type programKey struct{}

var cacheHits, cacheMisses atomic.Uint64

// Cached returns the compiled program for nl, compiling it on first use
// and keeping it on nl itself (netlist.Netlist.Memo): netlists are
// immutable after Build, so one program per netlist value is sound, and
// the program lives exactly as long as its netlist does. Module netlists
// that every profiling chunk, simulator and campaign wave comes back to
// compile once; a transient instrumented netlist (one fault.ShadowReplica
// per BMC spec) takes its program with it when it is dropped. Safe for
// concurrent use; the returned program is shared and read-only. If
// Compile panics on nl, so does every call.
func Cached(nl *netlist.Netlist) *Program {
	p, built := nl.Memo(programKey{}, func() any { return Compile(nl) })
	if built {
		cacheMisses.Add(1)
	} else {
		cacheHits.Add(1)
	}
	return p.(*Program)
}

// MemoStats is a snapshot of the process-wide counters of one
// per-netlist memo: Misses counts first compiles, Hits every other
// call. Evictions is always 0 — an artifact is freed with its netlist,
// never evicted — and stays because the vega-bench ledger reads it.
type MemoStats struct {
	Hits, Misses, Evictions uint64
}

// CacheStats snapshots Cached's counters.
func CacheStats() MemoStats {
	return MemoStats{Hits: cacheHits.Load(), Misses: cacheMisses.Load()}
}

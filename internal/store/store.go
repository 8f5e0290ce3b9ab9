// Package store is the fleet daemon's shared content-addressed artifact
// cache, and the daemon's one residency bound. Inside one process an
// artifact derived from a single netlist (engine.Cached's program,
// sta.CachedGraph's timing graph) simply lives on that netlist value —
// but a screening service receives the same netlist over and over as
// bytes, and every submission would parse to a fresh value. The store
// closes that gap: artifacts are keyed by the content hash of the
// submission, so N requests carrying the same netlist resolve to one
// canonical parsed instance (and with it one program and one timing
// graph), one SP profile and one aging corner grid, however many
// connections they arrived on. Evicting a parsed netlist frees what was
// compiled from it as well; nothing else in the process holds on to it.
//
// Three properties the daemon needs, beyond a map:
//
//   - Singleflight: concurrent requests for a missing key coalesce onto
//     one build. A burst of identical submissions compiles the netlist
//     exactly once; the rest wait for the leader and share the result
//     (TestSingleflightBuildsOnce holds this under the race detector).
//     A build that fails or panics releases its waiters with the error
//     and caches nothing.
//   - Bounded memory: entries live in an internal/lru cache, so a stream
//     of one-shot cold submissions cycles through the cold end while the
//     fleet's hot netlists stay resident. Eviction costs a rebuild,
//     never correctness.
//   - Accounting: hits, builds, coalesced waiters, evictions, in-flight
//     builds and residency are exported through Stats and surfaced on the
//     daemon's /metrics endpoint — the numbers that decide capacity.
//
// Values are stored as `any`: the store is one shared budget across
// artifact kinds (a netlist and a corner grid compete for the same
// residency), and the typed accessors live with the daemon, which knows
// what each key prefix holds.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/lru"
)

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Hits counts Do calls served from the cache without waiting.
	Hits uint64
	// Builds counts Do calls that ran their build function — for a given
	// key mix this is the number of compiles actually paid.
	Builds uint64
	// Coalesced counts Do calls that found their key mid-build and waited
	// for the leader instead of building — the singleflight savings.
	Coalesced uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	// Inflight is the number of builds currently running.
	Inflight int
	// Len is the number of resident entries.
	Len int
}

// flight is one in-progress build; waiters block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Store is a bounded content-addressed cache with singleflight build
// deduplication. Safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	c        *lru.Cache[string, any]
	inflight map[string]*flight

	hits, builds, coalesced uint64
}

// New returns an empty store bounded to capacity resident entries.
func New(capacity int) *Store {
	return &Store{
		c:        lru.New[string, any](capacity),
		inflight: make(map[string]*flight),
	}
}

// Do returns the artifact for key, building it with build on first use.
// Concurrent calls for the same missing key run build exactly once: one
// caller builds, the rest wait and share the result. hit reports whether
// this call avoided running build (cache hit or coalesced wait). A build
// error is returned to the leader and every coalesced waiter, and is not
// cached — the next Do retries. A build that panics is an error to the
// waiters and still a panic in the leader.
func (s *Store) Do(key string, build func() (any, error)) (v any, hit bool, err error) {
	s.mu.Lock()
	if v, ok := s.c.Get(key); ok {
		s.hits++
		s.mu.Unlock()
		return v, true, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.coalesced++
		s.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.builds++
	s.mu.Unlock()

	// Deferred so a panicking build still retires its flight: otherwise
	// every later Do on key would park on a done that never closes. The
	// waiters get the panic as an error; the leader panics on.
	defer func() {
		r := recover()
		if r != nil {
			f.val, f.err = nil, fmt.Errorf("store: build of %s panicked: %v", key, r)
		}
		s.mu.Lock()
		if f.err == nil {
			s.c.Add(key, f.val)
		}
		delete(s.inflight, key)
		s.mu.Unlock()
		close(f.done)
		if r != nil {
			panic(r)
		}
	}()
	f.val, f.err = build()
	return f.val, false, f.err
}

// Contains reports whether key is resident, without promoting it or
// touching the counters — the warm/cold probe the daemon tags jobs with.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.c.Peek(key)
	return ok
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.c.Stats()
	return Stats{
		Hits:      s.hits,
		Builds:    s.builds,
		Coalesced: s.coalesced,
		Evictions: ls.Evictions,
		Inflight:  len(s.inflight),
		Len:       ls.Len,
	}
}

// HashBytes returns the content address of a submission body: a
// truncated hex SHA-256. 96 bits keeps keys short in logs while staying
// far beyond birthday range for any plausible fleet population.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

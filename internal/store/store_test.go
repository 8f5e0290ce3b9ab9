package store

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSingleflightBuildsOnce is the acceptance-criteria assertion behind
// the fleet daemon's compile deduplication: N concurrent requests for
// one missing key run the build function exactly once, and every caller
// gets the same value. Run under -race in CI.
func TestSingleflightBuildsOnce(t *testing.T) {
	const waiters = 64
	s := New(8)
	var builds atomic.Int64
	gate := make(chan struct{})

	var wg sync.WaitGroup
	vals := make([]any, waiters)
	hits := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			v, hit, err := s.Do("netlist:abc", func() (any, error) {
				builds.Add(1)
				return "compiled", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			vals[i], hits[i] = v, hit
		}(i)
	}
	close(gate)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times for %d concurrent callers, want exactly 1", n, waiters)
	}
	misses := 0
	for i := range vals {
		if vals[i] != "compiled" {
			t.Fatalf("caller %d got %v", i, vals[i])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d callers reported hit=false, want exactly the one leader", misses)
	}
	st := s.Stats()
	if st.Builds != 1 {
		t.Errorf("Stats.Builds = %d, want 1", st.Builds)
	}
	if st.Hits+st.Coalesced != waiters-1 {
		t.Errorf("Hits+Coalesced = %d, want %d", st.Hits+st.Coalesced, waiters-1)
	}
	if st.Inflight != 0 {
		t.Errorf("Inflight = %d after quiesce, want 0", st.Inflight)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	s := New(4)
	var builds int
	fail := errors.New("compile failed")
	_, _, err := s.Do("k", func() (any, error) { builds++; return nil, fail })
	if !errors.Is(err, fail) {
		t.Fatalf("first Do err = %v, want %v", err, fail)
	}
	v, hit, err := s.Do("k", func() (any, error) { builds++; return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("retry Do = (%v, %v, %v), want (7, false, nil)", v, hit, err)
	}
	if builds != 2 {
		t.Fatalf("builds = %d, want 2 (error must not be cached)", builds)
	}
	if st := s.Stats(); st.Len != 1 {
		t.Fatalf("Len = %d, want 1", st.Len)
	}
}

// TestPanickingBuildReleasesWaiters: a build that panics must not leave
// its flight behind. The leader panics on (the daemon's runSafely turns
// that into a failed job); every waiter parked on the flight gets an
// error instead of blocking forever, nothing is cached, and the next Do
// on the key builds afresh.
func TestPanickingBuildReleasesWaiters(t *testing.T) {
	const waiters = 8
	s := New(4)
	parked := make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		s.Do("k", func() (any, error) {
			<-parked
			panic("poison netlist")
		})
	}()
	for s.Stats().Inflight != 1 {
		runtime.Gosched()
	}
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, _, err := s.Do("k", func() (any, error) { return nil, errors.New("a waiter built") })
			errs <- err
		}()
	}
	for s.Stats().Coalesced != waiters {
		runtime.Gosched()
	}
	close(parked)

	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "store: build of k panicked: poison netlist") {
				t.Errorf("waiter got %v, want the panic as an error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d waiters still parked on the dead flight", waiters-i, waiters)
		}
	}
	if r := <-leader; r != "poison netlist" {
		t.Errorf("leader recovered %v, want the build's own panic value", r)
	}
	if st := s.Stats(); st.Inflight != 0 || st.Len != 0 {
		t.Errorf("after the panic: Inflight = %d, Len = %d, want 0 and 0", st.Inflight, st.Len)
	}
	v, hit, err := s.Do("k", func() (any, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Errorf("Do after the panic = (%v, %v, %v), want a fresh build (7, false, nil)", v, hit, err)
	}
}

func TestEvictionBoundsResidency(t *testing.T) {
	const capacity = 8
	s := New(capacity)
	for i := 0; i < 3*capacity; i++ {
		key := fmt.Sprintf("cold:%d", i)
		if _, _, err := s.Do(key, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Len > capacity {
		t.Fatalf("Len = %d exceeds capacity %d", st.Len, capacity)
	}
	if st.Evictions != 2*capacity {
		t.Fatalf("Evictions = %d, want %d", st.Evictions, 2*capacity)
	}
	// The hottest (most recent) key must still be resident.
	if !s.Contains(fmt.Sprintf("cold:%d", 3*capacity-1)) {
		t.Error("most recent entry was evicted")
	}
	if s.Contains("cold:0") {
		t.Error("oldest entry survived past capacity")
	}
}

func TestContainsDoesNotPromoteOrCount(t *testing.T) {
	s := New(2)
	s.Do("a", func() (any, error) { return 1, nil })
	s.Do("b", func() (any, error) { return 2, nil })
	before := s.Stats()
	if !s.Contains("a") {
		t.Fatal("a missing")
	}
	if after := s.Stats(); after.Hits != before.Hits {
		t.Errorf("Contains advanced Hits: %d -> %d", before.Hits, after.Hits)
	}
	// a was probed but not promoted, so it is still the LRU entry.
	s.Do("c", func() (any, error) { return 3, nil })
	if s.Contains("a") {
		t.Error("a survived eviction — Contains promoted it")
	}
}

// TestConcurrentMixedKeys drives hot and cold traffic from many
// goroutines at once — the fleet's submission mix in miniature — and
// checks the counter algebra afterwards. Run under -race in CI.
func TestConcurrentMixedKeys(t *testing.T) {
	const (
		goroutines = 16
		iters      = 400
	)
	s := New(8)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("hot:%d", i%4)
				if i%8 == 7 { // a cold one-shot key per 8 requests
					key = fmt.Sprintf("cold:%d:%d", g, i)
				}
				v, _, err := s.Do(key, func() (any, error) { return key, nil })
				if err != nil {
					t.Errorf("Do(%s): %v", key, err)
					return
				}
				if v != key {
					t.Errorf("Do(%s) = %v", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if total := st.Hits + st.Coalesced + st.Builds; total != goroutines*iters {
		t.Errorf("Hits+Coalesced+Builds = %d, want %d", total, goroutines*iters)
	}
	if st.Inflight != 0 {
		t.Errorf("Inflight = %d after quiesce", st.Inflight)
	}
}

func TestHashBytes(t *testing.T) {
	a := HashBytes([]byte("module alu"))
	b := HashBytes([]byte("module alu"))
	c := HashBytes([]byte("module fpu"))
	if a != b {
		t.Errorf("hash not deterministic: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("distinct content collided: %s", a)
	}
	if len(a) != 24 {
		t.Errorf("hash length = %d, want 24 hex chars", len(a))
	}
}

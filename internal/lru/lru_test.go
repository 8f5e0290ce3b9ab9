package lru

import (
	"sync"
	"testing"
)

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[int, string](2)
	c.Add(1, "a")
	c.Add(2, "b")
	c.Add(3, "c") // evicts 1
	if _, ok := c.Get(1); ok {
		t.Error("1 survived eviction")
	}
	if v, ok := c.Get(2); !ok || v != "b" {
		t.Errorf("Get(2) = %q, %v", v, ok)
	}
	if v, ok := c.Get(3); !ok || v != "c" {
		t.Errorf("Get(3) = %q, %v", v, ok)
	}
}

func TestGetPromotes(t *testing.T) {
	c := New[int, int](2)
	c.Add(1, 10)
	c.Add(2, 20)
	c.Get(1)     // 2 is now LRU
	c.Add(3, 30) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Error("2 survived eviction despite 1 being promoted")
	}
	if _, ok := c.Get(1); !ok {
		t.Error("promoted entry 1 was evicted")
	}
}

func TestAddUpdatesAndPromotes(t *testing.T) {
	c := New[int, int](2)
	c.Add(1, 10)
	c.Add(2, 20)
	c.Add(1, 11) // update, promotes 1; 2 is LRU
	if c.Stats().Len != 2 {
		t.Fatalf("Len = %d after update, want 2", c.Stats().Len)
	}
	c.Add(3, 30) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Error("2 survived eviction after 1's update promoted it")
	}
	if v, ok := c.Get(1); !ok || v != 11 {
		t.Errorf("Get(1) = %d, %v; want updated value 11", v, ok)
	}
}

func TestStats(t *testing.T) {
	c := New[int, int](2)
	c.Add(1, 10)
	c.Get(1)
	c.Get(1)
	c.Get(9)
	c.Add(2, 20)
	c.Add(3, 30)
	s := c.Stats()
	want := Stats{Hits: 2, Misses: 1, Evictions: 1, Len: 2}
	if s != want {
		t.Errorf("Stats = %+v, want %+v", s, want)
	}
}

func TestCapacityOne(t *testing.T) {
	c := New[string, int](1)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); ok {
		t.Error("a survived in capacity-1 cache")
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Errorf("Get(b) = %d, %v", v, ok)
	}
}

// TestConcurrentChurn hammers Get/Add/Len/Stats from 8 goroutines over
// a key space larger than the capacity, so promotions, insertions and
// evictions interleave constantly. Run under -race this is the
// concurrency-safety proof the shared content-addressed store
// (internal/store) builds on; the final structural sweep catches
// recency-list corruption that the race detector alone would miss.
func TestConcurrentChurn(t *testing.T) {
	const (
		goroutines = 8
		iters      = 5000
		keySpace   = 37
		capacity   = 16
	)
	c := New[int, int](capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (i*7 + g*13) % keySpace
				switch i % 4 {
				case 0:
					c.Add(k, g<<16|i)
				case 1:
					if v, ok := c.Get(k); ok && v>>16 >= goroutines {
						t.Errorf("Get(%d) returned mangled value %#x", k, v)
						return
					}
				case 2:
					if n := c.Stats().Len; n < 0 || n > capacity {
						t.Errorf("Len = %d outside [0, %d]", n, capacity)
						return
					}
				default:
					s := c.Stats()
					if s.Len < 0 || s.Len > capacity {
						t.Errorf("Stats.Len = %d outside [0, %d]", s.Len, capacity)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The quiesced list and map must agree exactly.
	if n := c.Stats().Len; n > capacity {
		t.Fatalf("cache grew past capacity: %d", n)
	}
	seen := 0
	for e := c.root.next; e != &c.root; e = e.next {
		if got, ok := c.m[e.key]; !ok || got != e {
			t.Fatalf("list entry %v not in map after churn", e.key)
		}
		seen++
	}
	if seen != len(c.m) {
		t.Fatalf("list has %d entries, map has %d", seen, len(c.m))
	}
}

func TestChurnKeepsListConsistent(t *testing.T) {
	c := New[int, int](8)
	for i := 0; i < 1000; i++ {
		c.Add(i%13, i)
		c.Get((i * 7) % 13)
		if c.Stats().Len > 8 {
			t.Fatalf("cache grew past capacity: %d", c.Stats().Len)
		}
	}
	// Every entry the map holds must be reachable on the list and vice
	// versa.
	n := 0
	for e := c.root.next; e != &c.root; e = e.next {
		if got, ok := c.m[e.key]; !ok || got != e {
			t.Fatalf("list entry %v not in map", e.key)
		}
		n++
	}
	if n != c.Stats().Len {
		t.Fatalf("list has %d entries, map has %d", n, c.Stats().Len)
	}
}

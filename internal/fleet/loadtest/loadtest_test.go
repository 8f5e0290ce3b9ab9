package loadtest

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
)

// newDaemon brings up an in-process fleetd over an HTTP test listener,
// with its workers not yet started.
func newDaemon(t testing.TB, opts fleet.Options) (*fleet.Server, *fleet.Client) {
	t.Helper()
	opts.Dir = t.TempDir()
	s, err := fleet.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		h.Close()
		_ = s.Shutdown(context.Background())
	})
	return s, &fleet.Client{Base: h.URL}
}

// waitWatcher watches the clients' GET /jobs/{id}?wait= requests. It
// closes parked once parkAt of them are out, and counts the ones
// answered quickly. A correct daemon answers a wait either with a
// terminal record or after parking for the client's whole slice (20 s),
// so at most one quick answer per job; a client that polls collects
// many.
type waitWatcher struct {
	next   http.RoundTripper
	parkAt int64
	parked chan struct{}
	waits  atomic.Int64
	quick  atomic.Int64
}

func (w *waitWatcher) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodGet {
		return w.next.RoundTrip(req)
	}
	if w.waits.Add(1) == w.parkAt {
		close(w.parked)
	}
	t0 := time.Now()
	resp, err := w.next.RoundTrip(req)
	if time.Since(t0) < 5*time.Second {
		w.quick.Add(1)
	}
	return resp, err
}

// runBurst drives cfg through a daemon from newDaemon. With parked > 0
// the workers start only once that many clients have submitted and are
// waiting, so the daemon carries that many parked requests — each a
// connection and a goroutine — while it drains the queue and wakes
// them one by one.
func runBurst(t testing.TB, s *fleet.Server, c *fleet.Client, cfg Config, parked int) *Report {
	t.Helper()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = cfg.Concurrency
	t.Cleanup(tr.CloseIdleConnections)
	w := &waitWatcher{next: tr, parkAt: int64(parked), parked: make(chan struct{})}
	c.HTTP = &http.Client{Transport: w}
	if parked == 0 {
		s.Start()
	} else {
		go func() {
			<-w.parked
			s.Start()
		}()
	}
	rep, err := Run(context.Background(), cfg, c, s.Store())
	if err != nil {
		t.Fatal(err)
	}
	if waits, quick := w.waits.Load(), w.quick.Load(); waits < int64(cfg.Jobs) || quick > int64(cfg.Jobs) {
		t.Errorf("%d jobs took %d wait requests, %d of them answered quickly: clients are polling, not parked",
			cfg.Jobs, waits, quick)
	}
	return rep
}

// TestLoadBurst is the short race-mode burst CI runs: a concurrent
// submission storm against a live daemon, checking the run completes,
// the warm/cold split is populated, the store counters add up and the
// clients waited parked rather than polling — as a 16-client burst, and
// as one client per job with all 1,000 parked before the first job runs.
func TestLoadBurst(t *testing.T) {
	t.Run("clients=16", func(t *testing.T) {
		loadBurst(t, Config{Jobs: 60, Concurrency: 16, Cells: 400, SPCycles: 32, HotVariants: 3, ColdEvery: 6}, 0)
	})
	t.Run("parked=1000", func(t *testing.T) {
		loadBurst(t, Config{Jobs: 1000, Concurrency: 1000, Cells: 400, SPCycles: 32, HotVariants: 3, ColdEvery: 10}, 1000)
	})
}

func loadBurst(t *testing.T, cfg Config, parked int) {
	s, c := newDaemon(t, fleet.Options{Workers: 8})
	rep := runBurst(t, s, c, cfg, parked)
	if rep.Warm.Count+rep.Cold.Count+rep.FirstWave.Count != cfg.Jobs {
		t.Errorf("split %d warm + %d cold + %d first-wave != %d jobs",
			rep.Warm.Count, rep.Cold.Count, rep.FirstWave.Count, cfg.Jobs)
	}
	if rep.Warm.Count == 0 && parked == 0 {
		t.Error("no warm submissions — hot population never became resident")
	}
	if want := cfg.Jobs / cfg.ColdEvery; rep.Cold.Count != want {
		t.Errorf("%d cold submissions, want exactly %d (by construction)", rep.Cold.Count, want)
	}
	st := rep.Store
	if st.Inflight != 0 {
		t.Errorf("%d builds still in flight at rest", st.Inflight)
	}
	if st.Builds == 0 || st.Hits == 0 {
		t.Errorf("store counters implausible for a hot/cold mix: %+v", st)
	}
	data, err := json.Marshal(rep)
	if err != nil || len(data) == 0 {
		t.Fatalf("report does not serialize: %v", err)
	}
}

// TestPopulationDeterminism pins that the population depends on Config
// alone — the cold submissions really are unique, and the hot ones
// really repeat.
func TestPopulationDeterminism(t *testing.T) {
	cfg := Config{Jobs: 40, HotVariants: 3, ColdEvery: 8, Cells: 300}
	a, b := Population(cfg), Population(cfg)
	if len(a) != 40 {
		t.Fatalf("population size %d", len(a))
	}
	seen := map[string]int{}
	for i := range a {
		if a[i].Verilog != b[i].Verilog {
			t.Fatalf("population not deterministic at %d", i)
		}
		seen[a[i].Verilog]++
	}
	// 5 cold uniques + 3 hot variants.
	uniq := len(seen)
	if want := 5 + 3; uniq != want {
		t.Errorf("%d distinct netlists, want %d", uniq, want)
	}
}

// BenchmarkFleetd measures one scaled-down load-test round trip per
// iteration — the e2e cost of a mixed burst through the HTTP surface,
// worker pool and shared store — as a 32-client burst, and with 1,000
// clients parked before the first job runs.
func BenchmarkFleetd(b *testing.B) {
	for _, parked := range []int{0, 1000} {
		cfg := Config{Jobs: max(100, parked), Concurrency: max(32, parked), Cells: 1000, SPCycles: 64}
		b.Run(fmt.Sprintf("parked=%d", parked), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, c := newDaemon(b, fleet.Options{Workers: 8})
				b.StartTimer()
				rep := runBurst(b, s, c, cfg, parked)
				b.ReportMetric(rep.Warm.P50Ms, "warm-p50-ms")
				b.ReportMetric(rep.Cold.P50Ms, "cold-p50-ms")
				b.ReportMetric(rep.WarmColdP50Ratio, "cold/warm-p50")
			}
		})
	}
}

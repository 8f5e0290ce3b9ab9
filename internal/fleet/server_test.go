package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aging"
	"repro/internal/cell"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/lift"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/synth"
)

// newTestServer starts a daemon over a fresh state dir and an in-process
// HTTP listener, returning the server, a client bound to it, and a
// cleanup-registered shutdown.
func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	h := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		h.Close()
		_ = s.Shutdown(context.Background())
	})
	return s, &Client{Base: h.URL, HTTP: h.Client()}
}

// tinyVerilog synthesizes a small pipeline netlist as submission text.
func tinyVerilog(lanes int) string {
	return synth.Pipeline{Stages: 2, Width: 4, Lanes: lanes}.Build().Verilog()
}

// waitDone waits a job to done status, failing the test otherwise.
func waitDone(t *testing.T, c *Client, id string) *Job {
	t.Helper()
	j, err := c.Wait(context.Background(), id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	if j.Status != StatusDone {
		t.Fatalf("job %s finished %s (error %q), want done", id, j.Status, j.Error)
	}
	return j
}

// TestSmoke drives the full HTTP surface: an ALU lift job and an ALU
// campaign job (sharing one cached workflow), progress, results and
// metrics.
func TestSmoke(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	liftJob, err := c.Submit(ctx, Spec{Kind: KindLift, Unit: "ALU"})
	if err != nil {
		t.Fatal(err)
	}
	campJob, err := c.Submit(ctx, Spec{Kind: KindCampaign, Unit: "ALU", Seed: 3, PerClass: 2})
	if err != nil {
		t.Fatal(err)
	}
	if liftJob.CacheHit || campJob.CacheHit {
		t.Errorf("fresh submissions marked warm: lift=%v campaign=%v", liftJob.CacheHit, campJob.CacheHit)
	}

	lj := waitDone(t, c, liftJob.ID)
	cj := waitDone(t, c, campJob.ID)
	if cj.Progress.Done != cj.Progress.Total || cj.Progress.Total != CampaignTotal(2) {
		t.Errorf("campaign progress %+v, want %d/%d", cj.Progress, CampaignTotal(2), CampaignTotal(2))
	}

	suiteBytes, err := c.Result(ctx, lj.ID)
	if err != nil {
		t.Fatal(err)
	}
	var suite lift.Suite
	if err := json.Unmarshal(suiteBytes, &suite); err != nil {
		t.Fatalf("lift result is not a suite: %v", err)
	}
	if suite.Unit != "ALU" || len(suite.Cases) == 0 {
		t.Errorf("lift suite: unit %q, %d cases", suite.Unit, len(suite.Cases))
	}

	repBytes, err := c.Result(ctx, cj.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Unit      string
		Completed int
		Partial   bool
	}
	if err := json.Unmarshal(repBytes, &rep); err != nil {
		t.Fatalf("campaign result is not a report: %v", err)
	}
	if rep.Unit != "ALU" || rep.Partial || rep.Completed != CampaignTotal(2) {
		t.Errorf("campaign report: %+v", rep)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Store.Builds == 0 {
		t.Error("metrics: no store builds after two jobs")
	}
	// The two jobs share one (unit, years, mitigation) workflow: one
	// build, and the campaign either hit the cache or coalesced onto the
	// lift job's in-flight build.
	if m.Store.Hits+m.Store.Coalesced == 0 {
		t.Errorf("metrics: no sharing between lift and campaign: %+v", m.Store)
	}
	if m.Jobs[StatusDone] != 2 {
		t.Errorf("metrics: job census %v, want 2 done", m.Jobs)
	}
}

// TestDifferentialLift pins the byte-identity contract for lift jobs:
// the daemon's result equals json.Marshal of the suite the library path
// builds directly.
func TestDifferentialLift(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	j, err := c.Submit(ctx, Spec{Kind: KindLift, Unit: "ALU", Mitigation: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Result(ctx, waitDone(t, c, j.ID).ID)
	if err != nil {
		t.Fatal(err)
	}

	w := core.NewALU(core.Config{Years: 10, Parallelism: 1, Lift: lift.Config{Mitigation: true}})
	if _, err := w.ErrorLifting(); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(w.Suite())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("lift result diverges from library path:\n daemon %d bytes\n direct %d bytes", len(got), len(want))
	}
}

// TestDifferentialSweep pins the byte-identity contract for sweep jobs
// against the direct sta.AnalyzeCorners path over the same submitted
// netlist text.
func TestDifferentialSweep(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	src := tinyVerilog(2)
	spec := Spec{Kind: KindSweep, Verilog: src, SPCycles: 64, SPSeed: 7, YearsGrid: []float64{0, 5, 10}}
	j, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Result(ctx, waitDone(t, c, j.ID).ID)
	if err != nil {
		t.Fatal(err)
	}

	// The library path, with no store in sight.
	nl, err := netlist.ParseVerilog(src)
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.Lib28()
	period := sta.CriticalDelay(nl, lib) * 1.05
	prof, err := core.RandomSP(nl, 64, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sta.BatchConfig{
		PeriodPs: period, Base: lib, Model: aging.Default(),
		Profile: prof, PerEndpoint: 40, Parallelism: 1,
	}
	corners := []sta.Corner{{}, {Years: 5}, {Years: 10}}
	results := sta.AnalyzeCorners(nl, cfg, corners)
	want := SweepResult{Netlist: nl.Name, Cells: len(nl.Cells), PeriodPs: period}
	for i, res := range results {
		want.Points = append(want.Points, SweepPoint{
			Years:           spec.YearsGrid[i],
			WNSSetup:        res.WNSSetup,
			WNSHold:         res.WNSHold,
			SetupViolations: res.NumSetupViolations,
			HoldViolations:  res.NumHoldViolations,
		})
	}
	wantBytes, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Errorf("sweep result diverges from library path:\n daemon: %s\n direct: %s", got, wantBytes)
	}
}

// TestDifferentialCampaign pins the byte-identity contract for campaign
// jobs against the direct library path (same seed, same universe).
func TestDifferentialCampaign(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	j, err := c.Submit(ctx, Spec{Kind: KindCampaign, Unit: "ALU", Seed: 9, PerClass: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Result(ctx, waitDone(t, c, j.ID).ID)
	if err != nil {
		t.Fatal(err)
	}

	w := core.NewALU(core.Config{Years: 10, Parallelism: 1})
	if _, err := w.ErrorLifting(); err != nil {
		t.Fatal(err)
	}
	rep, err := w.InjectionCampaign(ctx, core.InjectOptions{Seed: 9, PerClass: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("campaign result diverges from library path:\n daemon %d bytes\n direct %d bytes", len(got), len(want))
	}
}

// TestDaemonSingleflight submits many identical sweep jobs concurrently
// and asserts the store compiled each artifact of the chain exactly
// once: the perf claim of the shared content-addressed cache, enforced
// at the daemon level rather than the store's own unit tests.
func TestDaemonSingleflight(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 8})
	ctx := context.Background()
	src := tinyVerilog(1)
	const K = 16

	ids := make([]string, K)
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := c.Submit(ctx, Spec{Kind: KindSweep, Verilog: src, SPCycles: 32})
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = j.ID
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var results [][]byte
	for _, id := range ids {
		got, err := c.Result(ctx, waitDone(t, c, id).ID)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, got)
	}
	for i := 1; i < K; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("submission %d returned different bytes than submission 0", i)
		}
	}

	st := s.Store().Stats()
	// The sweep chain publishes exactly 4 artifacts: netlist, period,
	// profile, corner grid. K identical jobs must build each once.
	if st.Builds != 4 {
		t.Errorf("store built %d artifacts for %d identical submissions, want 4 (compile-once)", st.Builds, K)
	}
	if got, want := st.Hits+st.Coalesced, uint64(4*(K-1)); got != want {
		t.Errorf("store reuse %d (hits %d + coalesced %d), want %d", got, st.Hits, st.Coalesced, want)
	}
	if st.Inflight != 0 {
		t.Errorf("store still has %d in-flight builds at rest", st.Inflight)
	}
}

// TestPanickingBuildFailsEveryJob: a job whose store build panics ends
// failed, and so does an identical resubmission — the first panic must
// not leave a dead flight that the second job parks on for good, taking
// a worker with it. The poison is a netlist the compilers refuse (a
// cell wider than cell.MaxArity, which no submitted Verilog parses to),
// planted under the submission's netlist key.
func TestPanickingBuildFailsEveryJob(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 1})
	src := tinyVerilog(1)
	nl, err := netlist.ParseVerilog(src)
	if err != nil {
		t.Fatal(err)
	}
	poison := nl.Clone()
	wide := &poison.Cells[poison.Topo()[0]]
	for len(wide.In) <= cell.MaxArity {
		wide.In = append(wide.In, wide.In[0])
	}
	if _, _, err := s.Store().Do(keyNetlist(netlistSHA(src)), func() (any, error) { return poison, nil }); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for attempt := 1; attempt <= 2; attempt++ {
		j, err := c.Submit(ctx, Spec{Kind: KindSweep, Verilog: src, SPCycles: 32})
		if err != nil {
			t.Fatal(err)
		}
		if j, err = c.Wait(ctx, j.ID); err != nil {
			t.Fatalf("submission %d: wait: %v (job left %s)", attempt, err, j.Status)
		}
		if j.Status != StatusFailed || !strings.Contains(j.Error, "panicked") {
			t.Errorf("submission %d finished %s (error %q), want failed with the panic", attempt, j.Status, j.Error)
		}
	}
	if st := s.Store().Stats(); st.Inflight != 0 {
		t.Errorf("store has %d builds in flight at rest", st.Inflight)
	}
}

// TestEvictedNetlistIsCollectable: -cache is the daemon's one residency
// bound, so once the store has evicted a sweep's chain nothing else may
// keep its parsed netlist (and the program and timing graph compiled
// from it) alive — and a later resubmission rebuilds to the same bytes.
// The first sweep's netlist is planted under its key so the test can
// watch it; the finalizer sits on the cell array because the netlist
// itself is in a cycle with its compiled forms.
func TestEvictedNetlistIsCollectable(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 1, CacheCap: 1})
	ctx := context.Background()
	sweep := func(src string) []byte {
		t.Helper()
		j, err := c.Submit(ctx, Spec{Kind: KindSweep, Verilog: src, SPCycles: 32})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Result(ctx, waitDone(t, c, j.ID).ID)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	first := tinyVerilog(1)
	freed := make(chan struct{})
	func() {
		nl, err := netlist.ParseVerilog(first)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(&nl.Cells[0], func(*netlist.Cell) { close(freed) })
		if _, _, err := s.Store().Do(keyNetlist(netlistSHA(first)), func() (any, error) { return nl, nil }); err != nil {
			t.Fatal(err)
		}
	}()
	want := sweep(first)
	sweep(tinyVerilog(2))

	collected := false
	for i := 0; i < 50 && !collected; i++ {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !collected {
		t.Error("the first sweep's netlist is still reachable after the store evicted its whole chain")
	}
	if got := sweep(first); !bytes.Equal(got, want) {
		t.Errorf("resubmitted sweep differs from its first run:\n first: %s\n again: %s", want, got)
	}
}

// TestValidationAndCancel exercises the submission guard rails and
// queued-job cancellation.
func TestValidationAndCancel(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	for _, bad := range []Spec{
		{Kind: "mine"},
		{Kind: KindLift, Unit: "VPU"},
		{Kind: KindSweep},
	} {
		if _, err := c.Submit(ctx, bad); err == nil {
			t.Errorf("spec %+v accepted, want rejection", bad)
		}
	}
	if _, err := c.Job(ctx, "j999999"); err == nil {
		t.Error("lookup of unknown job succeeded")
	}

	// Saturate the single worker with a slow job (a full ALU lift), then
	// cancel a queued one behind it: it must go straight to cancelled
	// without running.
	busy, err := c.Submit(ctx, Spec{Kind: KindLift, Unit: "ALU"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(ctx, Spec{Kind: KindSweep, Verilog: tinyVerilog(2), SPCycles: 64})
	if err != nil {
		t.Fatal(err)
	}
	cj, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cj.Status == StatusDone || cj.Status == StatusFailed {
		t.Errorf("cancelled queued job reports %s", cj.Status)
	}
	final, err := c.Wait(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCancelled {
		t.Errorf("queued job finished %s after cancel, want cancelled", final.Status)
	}
	waitDone(t, c, busy.ID)

	// The cancelled record survives in the census.
	m := s.MetricsSnapshot()
	if m.Jobs[StatusCancelled] != 1 {
		t.Errorf("census %v, want 1 cancelled", m.Jobs)
	}
}

// TestUntrustedJobRecordQuarantined: a job record this build cannot
// trust — one flipped bit, a payload with no envelope around it, an
// envelope generation no build ever wrote, or a sweep that inlines its
// source instead of naming it by hash — is quarantined and reported on
// /metrics, and the daemon keeps serving: one such record used to abort
// every restart. The untrusted record is the newest one, so this is
// also the regression test for job IDs: the next submission must not
// reuse the quarantined ID (its submitter may still ask for it, and a
// second quarantine of that name would overwrite the evidence).
func TestUntrustedJobRecordQuarantined(t *testing.T) {
	damage := map[string]func(t *testing.T, id string, data []byte) []byte{
		"bit-flip": func(t *testing.T, _ string, data []byte) []byte {
			data[len(data)/2] ^= 0x04
			return data
		},
		"unsealed": func(t *testing.T, _ string, data []byte) []byte {
			payload, _, err := chaos.Open(data)
			if err != nil {
				t.Fatal(err)
			}
			return payload
		},
		"old-envelope": func(t *testing.T, _ string, data []byte) []byte {
			return bytes.Replace(data, []byte("vega-rec v3 "), []byte("vega-rec v2 "), 1)
		},
		"inline": func(t *testing.T, id string, _ []byte) []byte {
			rec, err := json.Marshal(&Job{ID: id, Spec: sweepSpec(), Status: StatusQueued})
			if err != nil {
				t.Fatal(err)
			}
			return chaos.Seal(rec)
		},
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			good := queueOnDisk(t, dir, sweepSpec())
			bad := &Job{ID: "j000002", Spec: sweepSpec(), NetlistSHA: good.NetlistSHA, Status: StatusQueued}
			if err := saveJob(chaos.OS{}, dir, bad); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(jobPath(dir, bad.ID))
			if err != nil {
				t.Fatal(err)
			}
			data = hurt(t, bad.ID, data)
			if err := os.WriteFile(jobPath(dir, bad.ID), data, 0o644); err != nil {
				t.Fatal(err)
			}

			s, err := New(Options{Dir: dir, Workers: 1})
			if err != nil {
				t.Fatalf("one untrusted record aborted the daemon: %v", err)
			}
			defer func() { _ = s.Shutdown(context.Background()) }()
			s.Start()
			if _, ok := s.Job(bad.ID); ok {
				t.Fatal("untrusted record served as a job")
			}
			if q := s.MetricsSnapshot().Quarantined; len(q) != 1 || q[0] != bad.ID+".json" {
				t.Fatalf("metrics quarantine census = %v, want [%s.json]", q, bad.ID)
			}
			evidence := filepath.Join(dir, chaos.QuarantineDirName, bad.ID+".json")
			// The daemon is degraded, not dead: the healthy record next
			// to the untrusted one runs, and new work gets a fresh ID.
			waitServerDone(t, s, good.ID)
			j, err := s.Submit(sweepSpec())
			if err != nil {
				t.Fatal(err)
			}
			if j.ID <= bad.ID {
				t.Errorf("new job %s reuses the quarantined record's ID %s", j.ID, bad.ID)
			}
			waitServerDone(t, s, j.ID)
			if kept, err := os.ReadFile(evidence); err != nil || !bytes.Equal(kept, data) {
				t.Errorf("quarantined record not preserved intact (err %v)", err)
			}
		})
	}
}

// TestRecordRoundTripPreservesResultBytes: a done record reloaded from
// disk must serve the byte-identical result payload — encoding/json
// would re-indent an embedded raw message, which is why the persisted
// form carries the result out-of-band.
func TestRecordRoundTripPreservesResultBytes(t *testing.T) {
	dir := t.TempDir()
	result := json.RawMessage("{\n  \"a\": [1, 2,    3],\n\t\"b\": \"x\"\n}")
	j := &Job{ID: "j000003", Spec: Spec{Kind: KindLift, Unit: "ALU"}, Status: StatusDone, Result: result}
	if err := saveJob(chaos.OS{}, dir, j); err != nil {
		t.Fatal(err)
	}
	jobs, quarantined, err := loadJobs(chaos.OS{}, dir)
	if err != nil || len(quarantined) != 0 || len(jobs) != 1 {
		t.Fatalf("load: jobs=%d quarantined=%v err=%v", len(jobs), quarantined, err)
	}
	if !bytes.Equal(jobs[0].Result, result) {
		t.Fatalf("result bytes mangled by persistence round-trip:\n%q\n%q", jobs[0].Result, result)
	}
}

// TestOversizedSubmissionRejected: a submission larger than
// MaxBodyBytes costs a 413, not the daemon's heap.
func TestOversizedSubmissionRejected(t *testing.T) {
	s, err := New(Options{Dir: t.TempDir(), Workers: 1, MaxBodyBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() { _ = s.Shutdown(context.Background()) }()
	h := httptest.NewServer(s.Handler())
	defer h.Close()

	huge, err := json.Marshal(Spec{Kind: KindSweep, Verilog: strings.Repeat("x", 1<<20)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.URL+"/jobs", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submission got %d, want 413", resp.StatusCode)
	}
	// A normal-sized submission on the same daemon still works.
	ok, err := json.Marshal(Spec{Kind: KindSweep, Verilog: tinyVerilog(1)})
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(h.URL+"/jobs", "application/json", bytes.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("normal submission after 413 got %d, want 202", resp2.StatusCode)
	}
}

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

	// The daemon fills in the default margin; the library path spells out
	// the documented 1.05, so a drifted default fails here.
	oracle := spec
	oracle.Margin = 1.05
	wantBytes := librarySweep(t, oracle)
	if !bytes.Equal(got, wantBytes) {
		t.Errorf("sweep result diverges from library path:\n daemon: %s\n direct: %s", got, wantBytes)
	}
}

// librarySweep is a sweep's payload computed through the library path,
// with no daemon and no store in sight.
func librarySweep(t *testing.T, spec Spec) []byte {
	t.Helper()
	spec.fill()
	nl, err := netlist.ParseVerilog(spec.Verilog)
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.Lib28()
	period := sta.CriticalDelay(nl, lib) * spec.Margin
	prof, err := core.RandomSP(nl, spec.SPCycles, spec.SPSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sta.BatchConfig{
		PeriodPs: period, Base: lib, Model: aging.Default(),
		Profile: prof, PerEndpoint: 40, Parallelism: 1,
	}
	corners := make([]sta.Corner, len(spec.YearsGrid))
	for i, yr := range spec.YearsGrid {
		corners[i] = sta.Corner{Years: yr}
	}
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
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
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
	resp, err := c.HTTP.Get(c.Base + "/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("lookup of unknown job answered %d, want 404", resp.StatusCode)
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
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.Base+"/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = c.HTTP.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cj Job
	err = json.NewDecoder(resp.Body).Decode(&cj)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("DELETE of a queued job: %d, %v", resp.StatusCode, err)
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
// every restart. The untrusted record sits in the log between two
// valid frames, so it is corruption and not a torn append, and it
// belongs to the newest job, so this is also the regression test for
// job IDs: the next submission must not reuse the quarantined ID (its
// submitter may still ask for it, and a second quarantine of that name
// would overwrite the evidence).
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
			t.Run("middle", func(t *testing.T) { untrustedRecord(t, hurt, false) })
			t.Run("last", func(t *testing.T) { untrustedRecord(t, hurt, true) })
		})
	}
}

// untrustedRecord is one case of TestUntrustedJobRecordQuarantined: the
// damaged frame sits between two valid ones, or, when last is set, at
// the end of the log, where it is not a torn append either.
func untrustedRecord(t *testing.T, hurt func(t *testing.T, id string, data []byte) []byte, last bool) {
	dir := t.TempDir()
	good := queueOnDisk(t, dir, sweepSpec())
	bad := &Job{ID: "j000002", Spec: sweepSpec(), NetlistSHA: good.NetlistSHA, Status: StatusQueued}
	data := hurt(t, bad.ID, frameOf(t, bad))
	if last {
		appendLog(t, dir, data)
	} else {
		appendLog(t, dir, data, lastFrame(t, dir, good.ID))
	}

	s, err := New(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("one untrusted record aborted the daemon: %v", err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	s.Start()
	if _, err := s.Job(bad.ID); !errors.Is(err, errNotFound) {
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
}

// confined is a chaos.FS that notes every path it is handed, and apart
// those outside root.
type confined struct {
	chaos.FS
	root string

	mu      sync.Mutex
	paths   []string
	escapes []string
}

func (c *confined) see(paths ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range paths {
		c.paths = append(c.paths, p)
		if rel, err := filepath.Rel(c.root, p); err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			c.escapes = append(c.escapes, p)
		}
	}
}

func (c *confined) WriteFile(name string, data []byte, perm os.FileMode) error {
	c.see(name)
	return c.FS.WriteFile(name, data, perm)
}
func (c *confined) AppendFile(name string, data []byte, perm os.FileMode) error {
	c.see(name)
	return c.FS.AppendFile(name, data, perm)
}
func (c *confined) Truncate(name string, size int64) error {
	c.see(name)
	return c.FS.Truncate(name, size)
}
func (c *confined) ReadFile(name string) ([]byte, error) { c.see(name); return c.FS.ReadFile(name) }
func (c *confined) ReadAt(name string, off int64, n int) ([]byte, error) {
	c.see(name)
	return c.FS.ReadAt(name, off, n)
}
func (c *confined) ReadDir(name string) ([]os.DirEntry, error) {
	c.see(name)
	return c.FS.ReadDir(name)
}
func (c *confined) Rename(oldpath, newpath string) error {
	c.see(oldpath, newpath)
	return c.FS.Rename(oldpath, newpath)
}
func (c *confined) Remove(name string) error { c.see(name); return c.FS.Remove(name) }
func (c *confined) MkdirAll(name string, perm os.FileMode) error {
	c.see(name)
	return c.FS.MkdirAll(name, perm)
}
func (c *confined) SyncFile(name string) error { c.see(name); return c.FS.SyncFile(name) }
func (c *confined) SyncDir(name string) error  { c.see(name); return c.FS.SyncDir(name) }

// TestRecordNamesStayInDir: recovery builds paths from a record's id and
// netlist hash, so a frame whose id is not one the server would assign
// (j and six or more digits, spelled one way), or whose hash is not a
// SHA-256 in hex, is quarantined before any path is built from either —
// the daemon touches nothing outside its state dir, builds no
// checkpoint path from such an id, and two spellings cannot claim one
// job number. Frames that spell no ID are quarantined under their
// offset in the log.
func TestRecordNamesStayInDir(t *testing.T) {
	lift := Spec{Kind: KindLift, Unit: "ALU"}
	sweep := Spec{Kind: KindSweep, SPCycles: 32}
	cancelled := &Job{ID: "j000001", Spec: lift, Status: StatusCancelled}
	cases := []struct {
		name    string
		frames  []*Job // the log, in order
		outside string // a file beside the state dir that must survive
		served  string // an id recovery must still serve
		bad     string // the quarantine name of the frame that must be set aside
	}{
		{name: "id-escapes", bad: "frame-0.json", frames: []*Job{
			{ID: "../escape", Spec: lift, Status: StatusQueued},
		}},
		{name: "id-quarantines-outside", bad: "frame-0.json", outside: "victim.json", frames: []*Job{
			{ID: "../victim", Spec: sweep, NetlistSHA: strings.Repeat("ab", 32), Status: StatusQueued},
		}},
		{name: "id-not-digits", bad: "frame-0.json", frames: []*Job{
			{ID: "jabc", Spec: Spec{Kind: KindCampaign, Unit: "ALU", PerClass: 1}, Status: StatusQueued},
		}},
		{name: "hash-escapes", bad: "j000001.json", frames: []*Job{
			{ID: "j000001", Spec: sweep, NetlistSHA: "../../x", Status: StatusQueued},
		}},
		{name: "duplicate-id", bad: fmt.Sprintf("frame-%d.json", len(frameOf(t, cancelled))), served: "j000001", frames: []*Job{
			cancelled,
			{ID: "j0000001", Spec: lift, Status: StatusQueued},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "state")
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for _, j := range tc.frames {
				appendLog(t, dir, frameOf(t, j))
			}
			if tc.outside != "" {
				if err := os.WriteFile(filepath.Join(root, tc.outside), []byte("not the daemon's"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			fs := &confined{FS: chaos.OS{}, root: dir}
			s, err := New(Options{Dir: dir, Workers: 1, FS: fs})
			if err != nil {
				t.Fatalf("an untrusted record aborted the daemon: %v", err)
			}
			if _, err := s.Submit(lift); err != nil { // a record write goes through the seam too
				t.Fatal(err)
			}
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			if len(fs.escapes) != 0 {
				t.Errorf("recovery touched paths outside its state dir: %v", fs.escapes)
			}
			if !slices.Contains(fs.paths, filepath.Join(dir, logName)) {
				t.Errorf("the seam never saw the log: paths %v", fs.paths)
			}
			for _, j := range tc.frames {
				if validID(j.ID) {
					continue
				}
				if _, err := s.Job(j.ID); !errors.Is(err, errNotFound) {
					t.Errorf("untrusted id %q was loaded", j.ID)
				}
				for _, p := range fs.paths {
					if rel, _ := filepath.Rel(root, p); strings.Contains(rel, strings.TrimPrefix(j.ID, "../")) {
						t.Errorf("a path was built from untrusted id %q: %s", j.ID, p)
					}
				}
			}
			ents, err := os.ReadDir(root)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{"state": true, tc.outside: tc.outside != ""}
			for _, e := range ents {
				if !want[e.Name()] {
					t.Errorf("recovery left %s beside its state dir", e.Name())
				}
			}
			if tc.outside != "" {
				if _, err := os.Stat(filepath.Join(root, tc.outside)); err != nil {
					t.Errorf("a file beside the state dir was moved: %v", err)
				}
			}
			if q := s.MetricsSnapshot().Quarantined; len(q) != 1 || q[0] != tc.bad {
				t.Errorf("quarantine census = %v, want [%s]", q, tc.bad)
			}
			if _, err := os.Stat(filepath.Join(dir, chaos.QuarantineDirName, tc.bad)); err != nil {
				t.Errorf("untrusted record not preserved in quarantine: %v", err)
			}
			if tc.served != "" {
				if _, err := s.Job(tc.served); err != nil {
					t.Errorf("job %s not served: %v", tc.served, err)
				}
			}
		})
	}
}

// TestRecordRoundTripPreservesResultBytes: a done record reloaded from
// disk must serve the byte-identical result payload — encoding/json
// would re-indent an embedded raw message, which is why the persisted
// form carries the result out-of-band. Recovery keeps only the frame's
// place; the result is read back from it.
func TestRecordRoundTripPreservesResultBytes(t *testing.T) {
	dir := t.TempDir()
	result := json.RawMessage("{\n  \"a\": [1, 2,    3],\n\t\"b\": \"x\"\n}")
	j := &Job{ID: "j000003", Spec: Spec{Kind: KindLift, Unit: "ALU"}, Status: StatusDone, Result: result}
	appendLog(t, dir, frameOf(t, j))
	rec, err := loadJobs(chaos.OS{}, dir)
	if err != nil || len(rec.quarantined) != 0 || len(rec.jobs) != 1 || rec.jobs[0].Result != nil {
		t.Fatalf("load: %+v err=%v", rec, err)
	}
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Job(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Result, result) {
		t.Fatalf("result bytes mangled by persistence round-trip:\n%q\n%q", got.Result, result)
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

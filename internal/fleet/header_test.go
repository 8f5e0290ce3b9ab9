package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
)

// getResult asks h for job id's result.
func getResult(h http.Handler, id string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/jobs/"+id+"/result", nil))
	return w
}

// waitHeader polls until job id is terminal in the server's memory and
// returns its header, reading nothing from disk.
func waitHeader(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		j, ok := s.header(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.terminal() {
			return j
		}
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return nil
}

// TestJobIDsSortByNumber: an ID past j999999 is a longer one, and IDs
// sort by their number, not their spelling. Recovery requeues queued
// jobs oldest first, and Jobs lists them in that order.
func TestJobIDsSortByNumber(t *testing.T) {
	dir := t.TempDir()
	lift := Spec{Kind: KindLift, Unit: "ALU"}
	var frames [][]byte
	for _, id := range []string{"j1000000", "j999999", "j100001"} {
		frames = append(frames, frameOf(t, &Job{ID: id, Spec: lift, Status: StatusQueued}))
	}
	appendLog(t, dir, frames...)
	s, err := New(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"j100001", "j999999", "j1000000"}
	var queued, listed []string
	for _, j := range s.queue {
		queued = append(queued, j.ID)
	}
	for _, j := range s.Jobs() {
		listed = append(listed, j.ID)
	}
	if !slices.Equal(queued, want) || !slices.Equal(listed, want) {
		t.Errorf("recovery queued %v and Jobs listed %v, want both %v", queued, listed, want)
	}
	if s.seq != 1_000_000 {
		t.Errorf("seq %d, want 1000000", s.seq)
	}
}

// TestResultReadFault: a result read the disk fails, or answers with
// bytes that do not verify, is a 500 that serves none of them. The job
// stays done, and the next read serves its result.
func TestResultReadFault(t *testing.T) {
	spec := sweepSpec()
	want := librarySweep(t, spec)
	// 6 steps open the state, 4 write the blob and 4 the running and done
	// frames: the result's first read is step 15.
	for _, f := range []chaos.Fault{
		{Step: 15, Kind: chaos.IOErr},
		{Step: 15, Kind: chaos.Flip, Arg: 8 * 100},
		{Step: 15, Kind: chaos.Torn, Arg: 40},
	} {
		t.Run(f.Kind.String(), func(t *testing.T) {
			fs := chaos.NewInjected(chaos.OS{}, chaos.Plan{Faults: []chaos.Fault{f}})
			s, err := New(Options{Dir: t.TempDir(), Workers: 1, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			defer func() { _ = s.Shutdown(context.Background()) }()
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitHeader(t, s, j.ID)
			if n := fs.Steps(); n != 14 {
				t.Fatalf("the sweep took %d I/O steps before its result was read, want 14", n)
			}
			h := s.Handler()
			if w := getResult(h, j.ID); w.Code != http.StatusInternalServerError || bytes.Contains(w.Body.Bytes(), want[:32]) {
				t.Errorf("a faulted read answered %d: %s", w.Code, w.Body)
			}
			if j, _ := s.header(j.ID); j.Status != StatusDone {
				t.Errorf("a faulted read left the job %s", j.Status)
			}
			if w := getResult(h, j.ID); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("the read after the fault answered %d, payload equal: %v", w.Code, bytes.Equal(w.Body.Bytes(), want))
			}
		})
	}
}

// TestResultReadRot: a done frame whose bytes rot after they were
// written fails every read of its result, through GET and Server.Job,
// and never serves other bytes.
func TestResultReadRot(t *testing.T) {
	spec := sweepSpec()
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() { _ = s.Shutdown(context.Background()) }()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	at := waitHeader(t, s, j.ID).at
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Job(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	data[at.off+at.n-10] ^= 0x04 // inside the result
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if w := getResult(s.Handler(), j.ID); w.Code != http.StatusInternalServerError || bytes.Contains(w.Body.Bytes(), want.Result[:32]) {
		t.Errorf("a rotted frame answered %d: %s", w.Code, w.Body)
	}
	if got, err := s.Job(j.ID); err == nil {
		t.Errorf("Server.Job served a rotted frame's result (%d bytes)", len(got.Result))
	}
}

// TestResultReadWrongFrame: a frame that verifies but is another job's
// record is not served as this job's result.
func TestResultReadWrongFrame(t *testing.T) {
	s, err := New(Options{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() { _ = s.Shutdown(context.Background()) }()
	var ids []string
	for _, lanes := range []int{1, 2} {
		j, err := s.Submit(Spec{Kind: KindSweep, Verilog: tinyVerilog(lanes), SPCycles: 32})
		if err != nil {
			t.Fatal(err)
		}
		waitHeader(t, s, j.ID)
		ids = append(ids, j.ID)
	}
	s.mu.Lock()
	a, b := s.jobs[ids[0]], s.jobs[ids[1]]
	a.at, b.at = b.at, a.at
	s.mu.Unlock()
	for _, id := range ids {
		if w := getResult(s.Handler(), id); w.Code != http.StatusInternalServerError {
			t.Errorf("job %s answered %d with the other job's frame: %.80s", id, w.Code, w.Body)
		}
	}
}

// noSync is the real filesystem without fsyncs: a test about what the
// daemon holds in memory need not pay for durability.
type noSync struct{ chaos.OS }

func (noSync) SyncFile(string) error { return nil }
func (noSync) SyncDir(string) error  { return nil }

// TestHeldSourcesAndHeaders: the daemon's memory is its caches plus a
// header per job. After 2,000 sweeps over 200 distinct netlists it holds
// at most heldSources sources (/metrics netlists.held), and no terminal
// job holds its result or source. Every result is byte-equal through GET
// before and after a restart, and after a restart that compacts the log.
func TestHeldSourcesAndHeaders(t *testing.T) {
	const netlists, jobs, submitters = 200, 2000, 8
	const per = jobs / netlists // consecutive jobs share a netlist
	dir := t.TempDir()
	base := tinyVerilog(1)
	srcs := make([]string, netlists)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("%s// netlist %d\n", base, i)
	}
	s, err := New(Options{Dir: dir, Workers: 4, FS: noSync{}})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for g := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < jobs; i += submitters {
				j, err := s.Submit(Spec{Kind: KindSweep, Verilog: srcs[i/per], SPCycles: 1})
				if err != nil {
					t.Error(err)
					return
				}
				ids[i] = j.ID
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		if j := waitHeader(t, s, id); j.Status != StatusDone {
			t.Fatalf("job %s finished %s (%s)", id, j.Status, j.Error)
		}
	}

	results := make(map[string][]byte, jobs)
	check := func(when string, s *Server) {
		t.Helper()
		if held := s.MetricsSnapshot().Netlists.Held; held < 1 || held > 32 {
			t.Errorf("%s: /metrics netlists.held = %d, want 1..32", when, held)
		}
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.terminal() && (j.Result != nil || j.Spec.Verilog != "" || j.adm != nil) {
				t.Errorf("%s: terminal job %s holds %d bytes of result, %d of source, and its admission %v",
					when, j.ID, len(j.Result), len(j.Spec.Verilog), j.adm != nil)
			}
		}
		s.mu.Unlock()
		h := s.Handler()
		for i, id := range ids {
			w := getResult(h, id)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: GET result of %s answered %d: %s", when, id, w.Code, w.Body)
			}
			if want, ok := results[id]; !ok {
				results[id] = w.Body.Bytes()
			} else if !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("%s: job %s's result changed", when, id)
			}
			if first := ids[i/per*per]; !bytes.Equal(results[id], results[first]) {
				t.Fatalf("%s: jobs %s and %s swept one netlist to different results", when, first, id)
			}
		}
	}
	check("running", s)

	restart := func() *Server {
		t.Helper()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		s2, err := New(Options{Dir: dir, Workers: 4, FS: noSync{}})
		if err != nil {
			t.Fatal(err)
		}
		s2.Start()
		return s2
	}
	before := len(readLog(t, dir))
	s = restart()
	if n := len(readLog(t, dir)); n != before {
		t.Fatalf("a clean restart left %d frames, want the %d it found", n, before)
	}
	check("restarted", s)

	// A stretch that does not verify is quarantined, and the log compacted.
	appendLog(t, dir, []byte("vega-rec v3 crc32c=00000000 len=2\n{}"))
	s = restart()
	defer func() { _ = s.Shutdown(context.Background()) }()
	if n, q := len(readLog(t, dir)), s.MetricsSnapshot().Quarantined; n != jobs || len(q) != 1 {
		t.Fatalf("a restart over a corrupt stretch left %d frames and quarantined %v, want %d frames and one stretch", n, q, jobs)
	}
	check("compacted", s)
}

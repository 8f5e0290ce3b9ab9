package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
)

// recorder is a filesystem that logs, by job ID, the status of every job
// record written, and can hold one record write: the stallAt-th (1-based;
// 0 holds none) closes hit once reached and waits until release closes.
type recorder struct {
	chaos.FS
	stallAt      int
	hit, release chan struct{}

	mu     sync.Mutex
	writes int
	log    map[string][]string
}

func newRecorder(under chaos.FS, stallAt int) *recorder {
	return &recorder{FS: under, stallAt: stallAt, hit: make(chan struct{}), release: make(chan struct{}),
		log: make(map[string][]string)}
}

func (r *recorder) WriteFile(name string, data []byte, perm os.FileMode) error {
	id, ok := strings.CutSuffix(filepath.Base(name), ".json.tmp")
	if !ok {
		return r.FS.WriteFile(name, data, perm)
	}
	var j Job
	payload, _, err := chaos.Open(data)
	if err == nil {
		err = json.Unmarshal(payload, &j)
	}
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.writes++
	stall := r.writes == r.stallAt
	r.log[id] = append(r.log[id], j.Status)
	r.mu.Unlock()
	if stall {
		close(r.hit)
		<-r.release
	}
	return r.FS.WriteFile(name, data, perm)
}

// statuses returns the record statuses written for id, in order.
func (r *recorder) statuses(id string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log[id]...)
}

// records lists the job records in dir.
func records(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "j*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// submitAsync runs Submit in the background.
func submitAsync(s *Server, spec Spec) <-chan *Job {
	out := make(chan *Job, 1)
	go func() {
		j, err := s.Submit(spec)
		if err != nil {
			j = &Job{Error: err.Error()}
		}
		out <- j
	}()
	return out
}

// TestDirectStartWritesTwoRecords: a job an idle worker takes straight
// from Submit writes two records, running (its acceptance, which the
// submitter is answered with) and done; only a job that finds its one
// worker busy is written queued first. Every payload is the library's.
func TestDirectStartWritesTwoRecords(t *testing.T) {
	spec := sweepSpec()
	want := librarySweep(t, spec)
	count := chaos.NewInjected(chaos.OS{}, chaos.Plan{})
	// Writes 1 and 2 are the first job's; the second job's done record,
	// write 4, holds its worker while a third job is submitted.
	fs := newRecorder(count, 4)
	s, err := New(Options{Dir: t.TempDir(), Workers: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() { _ = s.Shutdown(context.Background()) }()

	a, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != StatusRunning || a.Attempts != 1 {
		t.Errorf("an idle daemon accepted a job as %s, attempt %d; want running, attempt 1", a.Status, a.Attempts)
	}
	waitTerminal(t, s, a.ID)
	// 2 steps open the state; the blob and the two records are each a
	// write, fsync, link, rename and directory fsync.
	before := count.Steps()
	if before != 2+3*5 {
		t.Errorf("an idle daemon's first sweep took %d I/O steps, want 17", before)
	}
	b, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	within(t, fs.hit, "the second job's done record write")
	// The second job's one record so far, whose write first moves the
	// spare the first job's done record left.
	if n := count.Steps() - before; n != 1+5 {
		t.Errorf("a direct start took %d I/O steps, want 6", n)
	}
	c, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Status != StatusQueued {
		t.Errorf("a job behind a busy worker was accepted as %s, want queued", c.Status)
	}
	close(fs.release)

	for _, tc := range []struct {
		j    *Job
		want []string
	}{
		{a, []string{StatusRunning, StatusDone}},
		{b, []string{StatusRunning, StatusDone}},
		{c, []string{StatusQueued, StatusRunning, StatusDone}},
	} {
		fin := waitServerDone(t, s, tc.j.ID)
		if !bytes.Equal(fin.Result, want) {
			t.Errorf("job %s: payload diverges from the library path", tc.j.ID)
		}
		if got := fs.statuses(tc.j.ID); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("job %s wrote records %v, want %v", tc.j.ID, got, tc.want)
		}
	}
	if m := s.MetricsSnapshot(); m.Starts != (StartCounts{Direct: 2, Queued: 1}) || m.RecordWriteErrors != 0 {
		t.Errorf("/metrics starts %+v, record_write_errors %d; want 2 direct, 1 queued, 0", m.Starts, m.RecordWriteErrors)
	}
}

// TestDirectStartWriteFails: when the disk refuses the running record
// that would accept a job, at any of the steps that fail the write, the
// submission is refused with the disk's error: nothing in memory,
// nothing on disk for a restart to run, and the next submission runs.
func TestDirectStartWriteFails(t *testing.T) {
	spec := sweepSpec()
	want := librarySweep(t, spec)
	// 2 steps open the state and 5 write the netlist blob; the running
	// record is a write (8), fsync (9), link (10, whose failure only
	// costs the recycling), rename (11) and directory fsync (12).
	for _, step := range []int{8, 9, 11, 12} {
		dir := t.TempDir()
		fs := chaos.NewInjected(chaos.OS{}, chaos.Plan{Faults: []chaos.Fault{{Step: step, Kind: chaos.NoSpace}}})
		s, err := New(Options{Dir: dir, Workers: 1, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		if _, err := s.Submit(spec); !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, errNotWritten) {
			t.Fatalf("enospc@%d: Submit = %v, want the disk's ENOSPC as a record not written", step, err)
		}
		if n, recs := len(s.Jobs()), records(t, dir); n != 0 || len(recs) != 0 {
			t.Fatalf("enospc@%d: a refused submission left %d jobs in memory and records %v", step, n, recs)
		}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("enospc@%d: the next submission: %v", step, err)
		}
		if fin := waitServerDone(t, s, j.ID); !bytes.Equal(fin.Result, want) {
			t.Errorf("enospc@%d: payload diverges from the library path", step)
		}
		if m := s.MetricsSnapshot(); m.RecordWriteErrors != 1 || m.Starts.Direct != 1 {
			t.Errorf("enospc@%d: /metrics record_write_errors %d, starts %+v; want 1 and 1 direct", step, m.RecordWriteErrors, m.Starts)
		}
		_ = s.Shutdown(context.Background())

		s, err = New(Options{Dir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].ID != j.ID {
			t.Errorf("enospc@%d: a restart recovered %d jobs, want only %s", step, len(jobs), j.ID)
		}
	}
}

// TestRecordWriteDoesNotBlockReads: while a record write is stalled —
// a new job's acceptance or a finished job's done record — the server
// lock is free: Job, Jobs, MetricsSnapshot and a second Submit answer.
func TestRecordWriteDoesNotBlockReads(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stallAt int
	}{{"running", 1}, {"done", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			fs := newRecorder(chaos.OS{}, tc.stallAt)
			s, err := New(Options{Dir: t.TempDir(), Workers: 1, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			defer func() { _ = s.Shutdown(context.Background()) }()
			first := submitAsync(s, sweepSpec())
			within(t, fs.hit, "the stalled record write")

			answered := make(chan *Job, 1)
			go func() {
				s.Job("j000001")
				s.Jobs()
				s.MetricsSnapshot()
				j, err := s.Submit(sweepSpec())
				if err != nil {
					t.Error(err)
				}
				answered <- j
			}()
			second := within(t, answered, "reads and a second submission during a stalled record write")
			if second == nil || second.Status != StatusQueued {
				t.Errorf("the second submission was answered %+v, want queued behind the busy worker", second)
			}
			close(fs.release)
			a := within(t, first, "the first submission")
			for _, j := range []*Job{a, second} {
				if j != nil && j.ID != "" {
					waitServerDone(t, s, j.ID)
				}
			}
		})
	}
}

// TestSubmitKeyDuringWrite: a resend of a submit key whose first record
// is still being written waits for it and gets the same job; exactly one
// record exists.
func TestSubmitKeyDuringWrite(t *testing.T) {
	dir := t.TempDir()
	fs := newRecorder(chaos.OS{}, 1)
	s, err := New(Options{Dir: dir, Workers: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() { _ = s.Shutdown(context.Background()) }()
	spec := sweepSpec()
	spec.SubmitKey = "k-during-write"
	first := submitAsync(s, spec)
	within(t, fs.hit, "the first record write")
	resend := submitAsync(s, spec)
	select {
	case j := <-resend:
		t.Fatalf("the resend was answered (%+v) before the first record was durable", j)
	case <-time.After(50 * time.Millisecond):
	}
	close(fs.release)
	a, b := within(t, first, "the first submission"), within(t, resend, "the resend")
	if a.ID == "" || a.ID != b.ID {
		t.Fatalf("first submission %+v and resend %+v are not one job", a, b)
	}
	waitServerDone(t, s, a.ID)
	if recs := records(t, dir); len(recs) != 1 || len(s.Jobs()) != 1 {
		t.Errorf("one submission and its resend left records %v and %d jobs", recs, len(s.Jobs()))
	}
}

// TestQueueFullWritesNoRecord: a submission refused because the queue is
// full writes no record, so a restarted daemon does not run a job its
// client was told was refused.
func TestQueueFullWritesNoRecord(t *testing.T) {
	defer func(n int) { queueCap = n }(queueCap)
	queueCap = 2
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, Workers: 1}) // never started: every job waits
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i < queueCap; i++ {
		if w := post(h, `{"kind":"lift","unit":"ALU"}`); w.Code != http.StatusAccepted {
			t.Fatalf("submission %d answered %d: %s", i, w.Code, w.Body)
		}
	}
	if w := post(h, `{"kind":"lift","unit":"ALU"}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("a submission to a full queue answered %d, want 503: %s", w.Code, w.Body)
	}
	_ = s.Shutdown(context.Background())

	s, err = New(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.Jobs()); n != queueCap {
		t.Errorf("a restart found %d jobs, want the %d accepted", n, queueCap)
	}
}

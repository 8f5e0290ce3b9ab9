package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
)

// recorder is a filesystem that logs, by job ID, the status of every
// frame appended to the job log, and can hold one append: the one that
// carries the stallAt-th frame (1-based; 0 holds none) closes hit once
// reached and waits until release closes.
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

func (r *recorder) AppendFile(name string, data []byte, perm os.FileMode) error {
	stall := false
	for rest := data; len(rest) > 0; {
		payload, n, err := chaos.OpenFrame(rest)
		var j Job
		if err == nil {
			err = json.Unmarshal(payload, &j)
		}
		if err != nil {
			return err
		}
		r.mu.Lock()
		r.writes++
		stall = stall || r.writes == r.stallAt
		r.log[j.ID] = append(r.log[j.ID], j.Status)
		r.mu.Unlock()
		rest = rest[n:]
	}
	if stall {
		close(r.hit)
		<-r.release
	}
	return r.FS.AppendFile(name, data, perm)
}

// statuses returns the record statuses written for id, in order.
func (r *recorder) statuses(id string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log[id]...)
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

// waitReserved waits until the server has handed out n job IDs.
func waitReserved(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(failAfter); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		seq := s.seq
		s.mu.Unlock()
		if seq >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the server handed out %d job IDs, want %d", seq, n)
		}
	}
}

// TestDirectStartWritesTwoRecords: a job an idle worker takes straight
// from Submit appends two frames, running (its acceptance, which the
// submitter is answered with) and done; only a job that finds its one
// worker busy is written queued first. Every payload is the library's.
func TestDirectStartWritesTwoRecords(t *testing.T) {
	spec := sweepSpec()
	want := librarySweep(t, spec)
	count := chaos.NewInjected(chaos.OS{}, chaos.Plan{})
	// Frames 1 and 2 are the first job's; the second job's done frame,
	// frame 4, holds its worker while a third job is submitted.
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
	// 6 steps open the state: the netlists directory, the listing and
	// the fresh log's write, fsync, rename and directory fsync. The blob
	// is a write, fsync, rename and directory fsync, each frame an append
	// and an fsync, and reading the result back from the done frame one
	// ReadAt.
	before := count.Steps()
	if before != 6+4+2*2+1 {
		t.Errorf("an idle daemon's first sweep took %d I/O steps, want 15", before)
	}
	b, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	within(t, fs.hit, "the second job's done frame")
	// The second job's one frame so far: an append and an fsync.
	if n := count.Steps() - before; n != 2 {
		t.Errorf("a direct start took %d I/O steps, want 2", n)
	}
	// The third job finds the worker busy, and its queued frame is the
	// batch after the held one.
	third := submitAsync(s, spec)
	waitReserved(t, s, 3)
	close(fs.release)
	c := within(t, third, "the third submission")
	if c.Status != StatusQueued {
		t.Errorf("a job behind a busy worker was accepted as %s (%s), want queued", c.Status, c.Error)
	}

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
			t.Errorf("job %s appended frames %v, want %v", tc.j.ID, got, tc.want)
		}
	}
	if m := s.MetricsSnapshot(); m.Starts != (StartCounts{Direct: 2, Queued: 1}) || m.RecordWriteErrors != 0 {
		t.Errorf("/metrics starts %+v, record_write_errors %d; want 2 direct, 1 queued, 0", m.Starts, m.RecordWriteErrors)
	}
}

// TestDirectStartWriteFails: when the disk refuses the running frame
// that would accept a job, at either of the steps that fail the write,
// the submission is refused with the disk's error: nothing in memory,
// nothing in the log for a restart to run, and the next submission runs.
func TestDirectStartWriteFails(t *testing.T) {
	spec := sweepSpec()
	want := librarySweep(t, spec)
	// 6 steps open the state and 4 write the netlist blob; the running
	// frame is an append (11) and an fsync (12).
	for _, step := range []int{11, 12} {
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

// TestRecordWriteDoesNotBlockReads: while a frame's append is stalled —
// a new job's acceptance or a finished job's done record — only the
// frames queued behind it wait. No lock is held across the stall: Job,
// Jobs and MetricsSnapshot answer, a second Submit takes its ID (so it
// passed the server lock) and its frame joins the log's queue (so it
// took the log's lock), and reads answer again while it waits there. The
// log is one file, so that frame cannot be durable before the stalled
// one is: the second Submit is answered only once the stall ends, queued
// behind the busy worker.
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
			within(t, fs.hit, "the stalled append")

			read := func() <-chan struct{} {
				answered := make(chan struct{})
				go func() {
					s.Job("j000001")
					s.Jobs()
					s.MetricsSnapshot()
					close(answered)
				}()
				return answered
			}
			within(t, read(), "reads during a stalled append")
			next := submitAsync(s, sweepSpec())
			waitReserved(t, s, 2)
			waitLogQueued(t, s.log, 1)
			within(t, read(), "reads while a second submission waits for the log")
			select {
			case j := <-next:
				t.Fatalf("the second submission was answered (%+v) before the stalled frame ahead of it was durable", j)
			default:
			}
			close(fs.release)
			a := within(t, first, "the first submission")
			second := within(t, next, "the second submission")
			if second.Status != StatusQueued {
				t.Errorf("the second submission was answered %+v, want queued behind the busy worker", second)
			}
			for _, j := range []*Job{a, second} {
				if j != nil && j.ID != "" {
					waitServerDone(t, s, j.ID)
				}
			}
		})
	}
}

// waitLogQueued waits until n frames wait in l's queue for the next
// batch; taking l.mu to look shows the batch being written does not hold it.
func waitLogQueued(t *testing.T, l *jobLog, n int) {
	t.Helper()
	for deadline := time.Now().Add(failAfter); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		queued := len(l.queue)
		l.mu.Unlock()
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d frames wait for the log's next batch, want %d", queued, n)
		}
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

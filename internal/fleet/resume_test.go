package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/store"
)

// TestRestartResume is the daemon-restart contract test: a campaign job
// interrupted mid-flight (checkpoint flushed, daemon killed) must, on a
// fresh daemon over the same state directory, resume from its
// checkpoint and produce the byte-identical final report an
// uninterrupted run produces.
func TestRestartResume(t *testing.T) {
	ctx := context.Background()
	spec := Spec{Kind: KindCampaign, Unit: "ALU", Seed: 5, PerClass: 8, CheckpointEvery: 4}

	// The oracle: the same campaign through the library path, no
	// daemon, no checkpoint, no interruption.
	w := core.NewALU(core.Config{Years: 10, Parallelism: 1})
	if _, err := w.ErrorLifting(); err != nil {
		t.Fatal(err)
	}
	rep, err := w.InjectionCampaign(ctx, core.InjectOptions{Seed: 5, PerClass: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}

	// Daemon 1: cancel the worker context synchronously at the first
	// checkpoint wave — deterministic interruption with the wave on
	// disk — then shut down.
	dir := t.TempDir()
	s1, err := New(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	shutdownDone := make(chan struct{})
	s1.progressHook = func(id string, p Progress) {
		once.Do(func() {
			s1.mu.Lock()
			s1.draining = true
			s1.closed = true
			s1.mu.Unlock()
			s1.cancel() // the campaign stops at the next wave boundary
			go func() {
				_ = s1.Shutdown(context.Background())
				close(shutdownDone)
			}()
		})
	}
	s1.Start()
	sub, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-shutdownDone

	// The interrupted job must be requeued on disk with real progress
	// behind it — otherwise this test would not exercise resume at all.
	recovered, err := loadJobs(chaos.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	var rec *Job
	for _, j := range recovered.jobs {
		if j.ID == sub.ID {
			rec = j
		}
	}
	if rec == nil {
		t.Fatalf("job %s not on disk after shutdown", sub.ID)
	}
	if rec.Status != StatusQueued {
		t.Fatalf("interrupted job persisted as %s, want queued", rec.Status)
	}
	if rec.Progress.Done == 0 || rec.Progress.Done >= rec.Progress.Total {
		t.Fatalf("interruption landed at %d/%d — not mid-campaign", rec.Progress.Done, rec.Progress.Total)
	}

	// Harden the scenario to a true kill: a daemon that died without
	// the graceful requeue leaves the record saying "running". Restart
	// must treat that as interrupted work too.
	rec.Status = StatusRunning
	appendLog(t, dir, frameOf(t, rec))

	// Daemon 2 over the same directory: the job requeues, the campaign
	// resumes from <id>.ckpt, and the final report matches the oracle
	// byte for byte.
	s2, err := New(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer func() { _ = s2.Shutdown(context.Background()) }()

	if j2, err := s2.Job(sub.ID); err != nil || (j2.Status != StatusQueued && j2.Status != StatusRunning && j2.Status != StatusDone) {
		t.Fatalf("restarted daemon did not requeue the job (status %v)", j2)
	}
	final := waitServerDone(t, s2, sub.ID)
	if !bytes.Equal(final.Result, want) {
		t.Errorf("resumed report diverges from uninterrupted run:\n resumed %d bytes\n oracle  %d bytes",
			len(final.Result), len(want))
	}
	if final.Progress.Done != final.Progress.Total {
		t.Errorf("resumed job progress %d/%d", final.Progress.Done, final.Progress.Total)
	}
}

// waitServerDone polls the server directly (no HTTP) until the job is
// done, failing on any terminal non-done status.
func waitServerDone(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	for {
		j, err := s.Job(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		switch j.Status {
		case StatusDone:
			return j
		case StatusFailed, StatusCancelled:
			t.Fatalf("job %s finished %s (error %q)", id, j.Status, j.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// keepCheckpoints is a filesystem whose removal of a checkpoint fails
// while keep is set: the state a crash between a campaign's terminal
// frame and its checkpoint's removal leaves.
type keepCheckpoints struct {
	chaos.FS
	keep atomic.Bool
}

func (f *keepCheckpoints) Remove(name string) error {
	if f.keep.Load() && strings.HasSuffix(name, ".ckpt") {
		return chaos.ErrCrashed
	}
	return f.FS.Remove(name)
}

// TestCheckpointDiesWithItsJob: a campaign's checkpoint lives exactly as
// long as its job can still run. One that finishes, and one cancelled
// mid-run, leave none; one whose removal never happened, and one of a
// job the log does not hold, are deleted by the next start; and an
// interrupted campaign keeps its checkpoint across that start and
// resumes from it to the uninterrupted report, leaving none behind.
func TestCheckpointDiesWithItsJob(t *testing.T) {
	spec := Spec{Kind: KindCampaign, Unit: "ALU", Seed: 5, PerClass: 8, CheckpointEvery: 4}
	want := tortureOracle(t, spec)
	shared := store.New(128)
	dir := t.TempDir()
	ckpts := func() []string {
		names, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
		for i, n := range names {
			names[i] = filepath.Base(n)
		}
		return names
	}

	fs := &keepCheckpoints{FS: chaos.OS{}}
	s1, err := New(Options{Dir: dir, Workers: 1, Store: shared, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	// The second job is cancelled and the fourth interrupted by a drain,
	// each at its first checkpoint wave.
	var once sync.Once
	drained := make(chan struct{})
	s1.progressHook = func(id string, p Progress) {
		switch id {
		case "j000002":
			_, _ = s1.Cancel(id)
		case "j000004":
			once.Do(func() {
				s1.mu.Lock()
				s1.draining, s1.closed = true, true
				s1.mu.Unlock()
				s1.cancel()
				go func() {
					_ = s1.Shutdown(context.Background())
					close(drained)
				}()
			})
		}
	}
	s1.Start()
	for i, wantStatus := range []string{StatusDone, StatusCancelled, StatusDone} {
		fs.keep.Store(i == 2)
		j, err := s1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitTerminal(t, s1, j.ID); fin.Status != wantStatus {
			t.Fatalf("job %s finished %s (%s), want %s", j.ID, fin.Status, fin.Error, wantStatus)
		}
	}
	fs.keep.Store(false)
	if got := ckpts(); !reflect.DeepEqual(got, []string{"j000003.ckpt"}) {
		t.Fatalf("after a finished, a cancelled and an unremoved campaign: checkpoints %v, want [j000003.ckpt]", got)
	}
	interrupted, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-drained
	if err := os.WriteFile(filepath.Join(dir, "j000099.ckpt"), []byte("a job the log does not hold"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{Dir: dir, Workers: 1, Store: shared})
	if err != nil {
		t.Fatal(err)
	}
	if got := ckpts(); !reflect.DeepEqual(got, []string{"j000004.ckpt"}) {
		t.Fatalf("a restart left checkpoints %v, want only the requeued campaign's [j000004.ckpt]", got)
	}
	if j, _ := s2.Job(interrupted.ID); j.Status != StatusQueued || j.Progress.Done == 0 || j.Progress.Done >= j.Progress.Total {
		t.Fatalf("the interrupted campaign was recovered %s at %d/%d, want queued mid-campaign", j.Status, j.Progress.Done, j.Progress.Total)
	}
	s2.Start()
	defer func() { _ = s2.Shutdown(context.Background()) }()
	fin := waitServerDone(t, s2, interrupted.ID)
	if fin.Attempts != 2 || !bytes.Equal(fin.Result, want) {
		t.Errorf("the requeued campaign finished on attempt %d, report equal to the oracle: %v; want attempt 2, equal",
			fin.Attempts, bytes.Equal(fin.Result, want))
	}
	if got := ckpts(); len(got) != 0 {
		t.Errorf("the resumed campaign left checkpoints %v", got)
	}
}

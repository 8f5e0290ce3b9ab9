package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/store"
)

// tortureOracle computes the uninterrupted campaign report for the
// torture spec through the library path — the byte-exact answer every
// crashed-and-restarted daemon must still converge to.
func tortureOracle(t *testing.T, spec Spec) []byte {
	t.Helper()
	w := core.NewALU(core.Config{Years: 10, Parallelism: 1})
	if _, err := w.ErrorLifting(); err != nil {
		t.Fatal(err)
	}
	rep, err := w.InjectionCampaign(context.Background(), core.InjectOptions{Seed: spec.Seed, PerClass: spec.PerClass})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// waitTerminal polls until the job leaves queued/running in the
// server's memory (any terminal status), with a deadline, and returns
// its full record.
func waitTerminal(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	j, err := finish(t, s, id)
	if err != nil {
		t.Fatalf("job %s: %v", id, err)
	}
	return j
}

// finish is waitTerminal for a daemon whose filesystem may have
// crashed: it returns the error reading the full record back, the
// result from the log, met instead of failing the test.
func finish(t *testing.T, s *Server, id string) (*Job, error) {
	t.Helper()
	return s.Job(waitHeader(t, s, id).ID)
}

// TestCrashMatrix is the proof layer of the chaos seam: run a
// checkpointed campaign job while the injected filesystem crashes at
// I/O step k, for EVERY k the uninterrupted run performs; restart a
// fresh daemon over the surviving directory each time and require the
// crash-consistency invariants:
//
//   - an accepted job (Submit returned success) is never lost — the
//     restarted daemon finds it on disk and finishes it;
//   - no corrupt or partial result is ever served — the finished
//     report is byte-identical to the uninterrupted oracle;
//   - a crash before acceptance leaves a directory a fresh daemon
//     starts on and serves the same oracle answer for a resubmission.
//
// The matrix runs for both ways a job starts: "direct", taken by an
// idle worker, whose running frame is its acceptance (two frames), and
// "queued", submitted before the workers start, so it is written
// queued, then running, then done. Each pins its step count and census
// (accepted, ambiguous, resubmitted): 6 steps open the state, each
// frame is an append and an fsync, the checkpoint's first read and its
// four waves (write, fsync, rename, directory fsync) take 17, the
// checkpoint's removal after the done frame takes 1, and reading the
// result back from the done frame takes 1. A crash at the
// acceptance frame's fsync is the one ambiguous point: the append
// landed, the acknowledgment did not.
//
// One shared artifact store plays the warm-restart supervisor so the
// ALU workflow compiles once across the whole matrix.
func TestCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is long")
	}
	spec := Spec{Kind: KindCampaign, Unit: "ALU", Seed: 5, PerClass: 2, CheckpointEvery: 2}
	want := tortureOracle(t, spec)
	shared := store.New(128)
	for _, tc := range []struct {
		name   string
		queued bool
		census [4]int // steps, accepted, ambiguous, resubmitted
	}{
		{"direct", false, [4]int{6 + 2 + 17 + 2 + 1 + 1, 21, 1, 7}},
		{"queued", true, [4]int{6 + 3*2 + 17 + 1 + 1, 23, 1, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) { crashMatrix(t, spec, want, shared, tc.queued, tc.census) })
	}
}

func crashMatrix(t *testing.T, spec Spec, want []byte, shared *store.Store, queued bool, census [4]int) {
	// Pass 0: no faults, through the counting filesystem — establishes
	// the step count and the differential baseline.
	runOnce := func(dir string, fs chaos.FS) (*Server, *Job, error) {
		s, err := New(Options{Dir: dir, Workers: 1, Store: shared, FS: fs})
		if err != nil {
			return nil, nil, err
		}
		if !queued {
			s.Start()
		}
		j, err := s.Submit(spec)
		if queued {
			s.Start()
		}
		if err != nil {
			_ = s.Shutdown(context.Background())
			return nil, nil, err
		}
		return s, j, nil
	}

	count := chaos.NewInjected(chaos.OS{}, chaos.Plan{})
	s0, j0, err := runOnce(t.TempDir(), count)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s0, j0.ID)
	_ = s0.Shutdown(context.Background())
	if fin.Status != StatusDone {
		t.Fatalf("baseline job finished %s (%s)", fin.Status, fin.Error)
	}
	if !bytes.Equal(fin.Result, want) {
		t.Fatalf("baseline daemon report diverges from library oracle (%d vs %d bytes)",
			len(fin.Result), len(want))
	}
	if accepted := j0.Status == StatusQueued; accepted != queued {
		t.Fatalf("baseline job was accepted %s", j0.Status)
	}
	steps := count.Steps()
	if steps != census[0] {
		t.Fatalf("baseline run performed %d I/O steps, want %d: the layout changed, re-derive the matrix", steps, census[0])
	}
	t.Logf("crash matrix: %d I/O steps to cover", steps)

	var nAccepted, nAmbiguous, nResubmitted int
	for k := 1; k <= steps; k++ {
		dir := t.TempDir()
		fs := chaos.NewInjected(chaos.OS{}, chaos.Plan{Faults: []chaos.Fault{{Step: k, Kind: chaos.Crash}}})

		accepted := ""
		s1, j1, err := runOnce(dir, fs)
		if err == nil {
			accepted = j1.ID
			// Let the daemon run into the crash (or to completion, when
			// the crash hit only later persistence); every path ends in a
			// terminal in-memory state because a dead FS fails the run.
			// Reading the result back is the run's last I/O step, and only
			// a crashed filesystem fails it.
			if _, err := finish(t, s1, j1.ID); err != nil && !fs.Crashed() {
				t.Fatalf("k=%d: reading the finished job back: %v", k, err)
			}
			_ = s1.Shutdown(context.Background())
		}
		if !fs.Crashed() {
			t.Fatalf("k=%d: fault plan never fired (%d steps taken)", k, fs.Steps())
		}

		// Restart over the surviving directory with a healthy filesystem.
		s2, err := New(Options{Dir: dir, Workers: 1, Store: shared})
		if err != nil {
			t.Fatalf("k=%d: restart failed: %v", k, err)
		}
		if len(s2.quarantined) != 0 {
			t.Fatalf("k=%d: crash left records %v quarantined — a torn append was taken for corruption", k, s2.quarantined)
		}
		s2.Start()

		id := accepted
		if id == "" {
			// Crash before acceptance: the outcome is legitimately
			// ambiguous (the classic lost-response window). Either the
			// frame never landed — the log is empty and a fresh
			// submission works — or its append landed just before the
			// crash and the restarted daemon recovers the job anyway.
			// Both must converge on the oracle; what is never allowed is
			// a torn or duplicated record.
			switch recovered := s2.Jobs(); len(recovered) {
			case 0:
				nResubmitted++
				j2, err := s2.Submit(spec)
				if err != nil {
					t.Fatalf("k=%d: resubmission failed: %v", k, err)
				}
				id = j2.ID
			case 1:
				nAmbiguous++
				id = recovered[0].ID
			default:
				t.Fatalf("k=%d: one unacknowledged submission left %d records", k, len(recovered))
			}
		} else {
			nAccepted++
			// Accepted job must survive the crash.
			if _, err := s2.Job(id); err != nil {
				t.Fatalf("k=%d: accepted job %s lost across crash+restart: %v", k, id, err)
			}
		}
		fin := waitTerminal(t, s2, id)
		_ = s2.Shutdown(context.Background())
		if fin.Status != StatusDone {
			t.Fatalf("k=%d: job finished %s (%s), want done", k, fin.Status, fin.Error)
		}
		if !bytes.Equal(fin.Result, want) {
			t.Fatalf("k=%d: report after crash+restart diverges from oracle (%d vs %d bytes)",
				k, len(fin.Result), len(want))
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(left) != 0 {
			t.Fatalf("k=%d: the finished campaign left checkpoints %v", k, left)
		}
	}
	t.Logf("crash matrix: %d points — accepted+recovered %d, ambiguous-submit recovered %d, resubmitted fresh %d; all byte-identical to oracle",
		steps, nAccepted, nAmbiguous, nResubmitted)
	if got := [4]int{steps, nAccepted, nAmbiguous, nResubmitted}; got != census {
		t.Errorf("census %v, want %v", got, census)
	}
}

// TestJobDeadlinePoisonFuse: a job that can never meet its deadline is
// retried (campaigns keep their checkpointed prefix) until the attempt
// cap trips, then fails with an explanatory reason — it must not
// requeue forever or pin a worker.
func TestJobDeadlinePoisonFuse(t *testing.T) {
	// The workflow build runs inside the store's singleflight, outside
	// the job context, so it completes even under a nanosecond deadline —
	// the deadline then bites at the campaign's first cancellation point.
	shared := store.New(128)
	spec := Spec{Kind: KindCampaign, Unit: "ALU", Seed: 5, PerClass: 4, CheckpointEvery: 1}

	s, err := New(Options{Dir: t.TempDir(), Workers: 1, Store: shared,
		JobTimeout: time.Nanosecond, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() { _ = s.Shutdown(context.Background()) }()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, j.ID)
	if fin.Status != StatusFailed {
		t.Fatalf("impossible-deadline job finished %s, want failed", fin.Status)
	}
	if !strings.Contains(fin.Error, "deadline") || !strings.Contains(fin.Error, "3/3") {
		t.Fatalf("poison-fuse reason %q does not name the deadline and attempt budget", fin.Error)
	}
	if fin.Attempts != 3 {
		t.Fatalf("job recorded %d attempts, want 3", fin.Attempts)
	}

	// The same daemon still completes reasonable work afterwards.
	s2, err := New(Options{Dir: t.TempDir(), Workers: 1, Store: shared, JobTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer func() { _ = s2.Shutdown(context.Background()) }()
	ok, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, s2, ok.ID); fin.Status != StatusDone {
		t.Fatalf("job under a sane deadline finished %s (%s)", fin.Status, fin.Error)
	}
}

// TestCorruptCheckpointQuarantined: a campaign interrupted mid-flight
// whose on-disk checkpoint is then silently corrupted (one flipped bit)
// must NOT resume from the corrupt state — the envelope detects it, the
// file is quarantined, and the restarted daemon recomputes the
// campaign from scratch to the byte-identical oracle report.
func TestCorruptCheckpointQuarantined(t *testing.T) {
	spec := Spec{Kind: KindCampaign, Unit: "ALU", Seed: 5, PerClass: 8, CheckpointEvery: 4}
	want := tortureOracle(t, spec)

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
			s1.cancel()
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

	// Flip one bit in the checkpoint payload — the silent corruption an
	// aging storage device hands back.
	ckpt := ckptPath(dir, sub.ID)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint on disk after interruption: %v", err)
	}
	data[len(data)-2] ^= 0x10
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer func() { _ = s2.Shutdown(context.Background()) }()
	final := waitServerDone(t, s2, sub.ID)
	if !bytes.Equal(final.Result, want) {
		t.Errorf("report after corrupt-checkpoint restart diverges from oracle (%d vs %d bytes)",
			len(final.Result), len(want))
	}
	qdir := filepath.Join(dir, chaos.QuarantineDirName)
	ents, err := os.ReadDir(qdir)
	if err != nil || len(ents) == 0 {
		t.Errorf("corrupt checkpoint was not quarantined under %s (err %v)", qdir, err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".ckpt") {
			t.Errorf("unexpected quarantined file %s", e.Name())
		}
	}
}

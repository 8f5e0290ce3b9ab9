package fleet

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/store"
)

// sweepOracle is the payload an undisturbed daemon returns for spec —
// which TestDifferentialSweep pins to the direct library path.
func sweepOracle(t *testing.T, spec Spec) []byte {
	t.Helper()
	s, err := New(Options{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() { _ = s.Shutdown(context.Background()) }()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return waitServerDone(t, s, j.ID).Result
}

// queueOnDisk accepts spec on a daemon whose workers never start and
// shuts it down: the state a daemon killed right after accepting leaves.
func queueOnDisk(t *testing.T, dir string, spec Spec) *Job {
	t.Helper()
	s, err := New(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	return j
}

func blobPath(dir string, j *Job) string {
	return filepath.Join(dir, "netlists", j.NetlistSHA+".v")
}

// recordOmitsSource checks the persisted record names the netlist by
// hash and does not carry it.
func recordOmitsSource(t *testing.T, dir string, j *Job, src string) {
	t.Helper()
	data := lastFrame(t, dir, j.ID)
	if !bytes.Contains(data, []byte(j.NetlistSHA)) {
		t.Errorf("record %s does not name its netlist hash", j.ID)
	}
	if len(data) >= len(src) || bytes.Contains(data, []byte("endmodule")) {
		t.Errorf("record %s is %d bytes and still carries the %d-byte source", j.ID, len(data), len(src))
	}
}

// TestSweepRestartResume: a sweep accepted and then interrupted before
// it ran resumes on a restarted daemon to the byte-identical payload,
// from the hash-only record and its blob.
func TestSweepRestartResume(t *testing.T) {
	spec := Spec{Kind: KindSweep, Verilog: tinyVerilog(2), SPCycles: 64, SPSeed: 7, YearsGrid: []float64{0, 5, 10}}
	want := sweepOracle(t, spec)

	dir := t.TempDir()
	j := queueOnDisk(t, dir, spec)
	if j.NetlistSHA != netlistSHA(spec.Verilog) {
		t.Fatalf("job carries hash %q, want the SHA-256 of its source", j.NetlistSHA)
	}
	recordOmitsSource(t, dir, j, spec.Verilog)

	s, err := New(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.quarantined) != 0 {
		t.Fatalf("healthy state quarantined: %v", s.quarantined)
	}
	s.Start()
	got := waitServerDone(t, s, j.ID).Result
	_ = s.Shutdown(context.Background())
	if !bytes.Equal(got, want) {
		t.Errorf("resumed sweep diverges from the undisturbed run:\n resumed: %s\n oracle:  %s", got, want)
	}
	recordOmitsSource(t, dir, j, spec.Verilog)

	// And once more: the finished record reloads through its blob.
	s, err = New(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	again, err := s.Job(j.ID)
	if err != nil || len(s.quarantined) != 0 || !bytes.Equal(again.Result, want) || again.Spec.Verilog != spec.Verilog {
		t.Errorf("finished sweep did not reload intact (%v, quarantined %v)", err, s.quarantined)
	}
}

// TestNetlistBlobDamageQuarantinesRecord: a record whose netlist blob is
// missing, truncated, bit-flipped or holds other content is quarantined,
// never run on the wrong source, and the daemon keeps serving. A blob
// file is trusted only once this process wrote or verified it: the
// resubmission rewrites the damaged file rather than believing it, so
// the next restart recovers the new job cleanly.
func TestNetlistBlobDamageQuarantinesRecord(t *testing.T) {
	spec := sweepSpec()
	want := sweepOracle(t, spec)
	damage := map[string]func(t *testing.T, path string, data []byte) error{
		"missing": func(t *testing.T, path string, _ []byte) error { return os.Remove(path) },
		"truncated": func(t *testing.T, path string, data []byte) error {
			return os.WriteFile(path, data[:len(data)/2], 0o644)
		},
		"bit-flip": func(t *testing.T, path string, data []byte) error {
			data[len(data)/2] ^= 0x04
			return os.WriteFile(path, data, 0o644)
		},
		// A valid envelope around the wrong netlist: only the SHA-256
		// check can tell.
		"hash-mismatch": func(t *testing.T, path string, _ []byte) error {
			return os.WriteFile(path, chaos.Seal([]byte(tinyVerilog(2))), 0o644)
		},
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			lost := queueOnDisk(t, dir, spec)
			blob := blobPath(dir, lost)
			data, err := os.ReadFile(blob)
			if err != nil {
				t.Fatalf("no blob on disk after an accepted sweep: %v", err)
			}
			if err := hurt(t, blob, data); err != nil {
				t.Fatal(err)
			}

			s, err := New(Options{Dir: dir, Workers: 1})
			if err != nil {
				t.Fatalf("a damaged blob aborted the daemon: %v", err)
			}
			s.Start()
			if _, err := s.Job(lost.ID); !errors.Is(err, errNotFound) {
				t.Error("record with a damaged blob served as a job")
			}
			if q := s.MetricsSnapshot().Quarantined; len(q) != 1 || q[0] != lost.ID+".json" {
				t.Errorf("quarantine census = %v, want [%s.json]", q, lost.ID)
			}
			if _, err := os.Stat(filepath.Join(dir, chaos.QuarantineDirName, lost.ID+".json")); err != nil {
				t.Errorf("record not preserved in quarantine: %v", err)
			}
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if j.ID <= lost.ID {
				t.Errorf("new job %s reuses the quarantined record's ID %s", j.ID, lost.ID)
			}
			got := waitServerDone(t, s, j.ID).Result
			_ = s.Shutdown(context.Background())
			if !bytes.Equal(got, want) {
				t.Errorf("sweep after quarantine diverges from the undisturbed run")
			}

			s, err = New(Options{Dir: dir, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = s.Shutdown(context.Background()) }()
			if again, err := s.Job(j.ID); err != nil || len(s.quarantined) != 0 || !bytes.Equal(again.Result, want) {
				t.Errorf("resubmitted sweep did not survive a restart (%v, quarantined %v): blob not rewritten?",
					err, s.quarantined)
			}
		})
	}
}

// TestCrashMatrixSweep is TestCrashMatrix for the sweep layout: the
// filesystem dies at every I/O step of an accepted-and-finished sweep —
// opening the state, the blob's write, fsync, rename and directory
// fsync, then each frame's append and fsync — and every restart over
// the surviving directory must start clean (nothing torn, nothing
// quarantined) and converge on the undisturbed payload.
func TestCrashMatrixSweep(t *testing.T) {
	spec := sweepSpec()
	want := sweepOracle(t, spec)
	shared := store.New(128)

	// run drives one daemon over dir until the job is terminal in memory
	// (a dead filesystem fails persistence, not the run), reads it back,
	// and returns the accepted ID, empty when the crash came before
	// acceptance.
	run := func(dir string, fs *chaos.Injected) string {
		s, err := New(Options{Dir: dir, Workers: 1, Store: shared, FS: fs})
		if err != nil {
			return ""
		}
		s.Start()
		defer func() { _ = s.Shutdown(context.Background()) }()
		j, err := s.Submit(spec)
		if err != nil {
			return ""
		}
		if _, err := finish(t, s, j.ID); err != nil && !fs.Crashed() {
			t.Fatalf("reading the finished sweep back: %v", err)
		}
		return j.ID
	}

	count := chaos.NewInjected(chaos.OS{}, chaos.Plan{})
	run(t.TempDir(), count)
	steps := count.Steps()
	// 6 to open the state (the netlists directory, the listing, and the
	// fresh log's write, fsync, rename and directory fsync); 4 for the
	// blob (write, fsync, rename, directory fsync); an append and an
	// fsync for each of the two frames (running, which an idle worker's
	// claim makes the acceptance, then done); 1 to read the result back
	// from the done frame.
	if steps != 6+4+2*2+1 {
		t.Fatalf("an undisturbed sweep took %d I/O steps, want 15: the layout changed, re-derive the matrix", steps)
	}

	var nAccepted, nAmbiguous, nResubmitted int
	for k := 1; k <= steps; k++ {
		dir := t.TempDir()
		fs := chaos.NewInjected(chaos.OS{}, chaos.Plan{Faults: []chaos.Fault{{Step: k, Kind: chaos.Crash}}})
		id := run(dir, fs)
		if !fs.Crashed() {
			t.Fatalf("k=%d: fault plan never fired", k)
		}

		s, err := New(Options{Dir: dir, Workers: 1, Store: shared})
		if err != nil {
			t.Fatalf("k=%d: restart failed: %v", k, err)
		}
		if len(s.quarantined) != 0 {
			t.Fatalf("k=%d: crash left records %v untrusted — a record outlived or preceded its blob", k, s.quarantined)
		}
		s.Start()
		switch recovered := s.Jobs(); {
		case id != "" && len(recovered) != 1:
			t.Fatalf("k=%d: accepted sweep %s left %d records", k, id, len(recovered))
		case len(recovered) > 1:
			t.Fatalf("k=%d: one submission left %d records", k, len(recovered))
		case id != "":
			nAccepted++
		case len(recovered) == 1:
			nAmbiguous++ // the record's rename landed, its acknowledgment did not
			id = recovered[0].ID
		default:
			nResubmitted++
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatalf("k=%d: resubmission failed: %v", k, err)
			}
			id = j.ID
		}
		fin := waitTerminal(t, s, id)
		_ = s.Shutdown(context.Background())
		if fin.Status != StatusDone || !bytes.Equal(fin.Result, want) {
			t.Fatalf("k=%d: sweep after crash+restart finished %s (%s), payload equal: %v",
				k, fin.Status, fin.Error, bytes.Equal(fin.Result, want))
		}
	}
	t.Logf("sweep crash matrix: %d points — accepted+recovered %d, ambiguous-submit recovered %d, resubmitted fresh %d; all byte-identical to the undisturbed run",
		steps, nAccepted, nAmbiguous, nResubmitted)
	// Startup, the blob and the running frame's append leave no job; a
	// crash at its fsync leaves the appended frame, unacknowledged; the
	// done frame's two steps leave an accepted job to requeue, and the
	// result's read an accepted job that is done.
	if census := [3]int{nAccepted, nAmbiguous, nResubmitted}; census != [3]int{3, 1, 11} {
		t.Errorf("census %v, want [3 1 11]", census)
	}
}

// creations counts, at the FS seam, the files a daemon creates: writes
// to names that do not exist yet. It also counts checkpoint writes.
type creations struct {
	chaos.FS
	n, ckpt int
}

func (c *creations) WriteFile(name string, data []byte, perm os.FileMode) error {
	if _, err := os.Lstat(name); os.IsNotExist(err) {
		c.n++
	}
	if strings.HasSuffix(name, ".ckpt.tmp") {
		c.ckpt++
	}
	return c.FS.WriteFile(name, data, perm)
}

// TestRecordsCreateNoFile: job records create no file — every frame is
// appended to the log New wrote — so the only files created are the
// log's first version, the blob, and a campaign's checkpoint waves, and
// only the log and the blob are left. A restart loads every record.
func TestRecordsCreateNoFile(t *testing.T) {
	const sweeps = 5
	campaign := Spec{Kind: KindCampaign, Unit: "ALU", Seed: 5, PerClass: 2, CheckpointEvery: 1}
	dir := t.TempDir()
	fs := &creations{FS: chaos.OS{}}
	s, err := New(Options{Dir: dir, Workers: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for i := 0; i <= sweeps; i++ {
		spec := sweepSpec()
		if i == sweeps {
			spec = campaign
		}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitTerminal(t, s, j.ID); fin.Status != StatusDone {
			t.Fatalf("job %s finished %s (%s)", j.ID, fin.Status, fin.Error)
		}
	}
	_ = s.Shutdown(context.Background())

	var files []string
	_ = filepath.WalkDir(dir, func(path string, d os.DirEntry, _ error) error {
		if !d.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if fs.ckpt < 3 || fs.n != 2+fs.ckpt || len(files) != 2 {
		t.Errorf("%d checkpoint waves: %d files created, files %v left; want %d created, the log and the blob left",
			fs.ckpt, fs.n, files, 2+fs.ckpt)
	}

	s, err = New(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Jobs()) != sweeps+1 || len(s.quarantined) != 0 {
		t.Errorf("restart loaded %d of %d records, quarantined %v", len(s.Jobs()), sweeps+1, s.quarantined)
	}
}

package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
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
	data, err := os.ReadFile(jobPath(dir, j.ID))
	if err != nil {
		t.Fatal(err)
	}
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
	again, ok := s.Job(j.ID)
	if !ok || len(s.quarantined) != 0 || !bytes.Equal(again.Result, want) || again.Spec.Verilog != spec.Verilog {
		t.Errorf("finished sweep did not reload intact (found %v, quarantined %v)", ok, s.quarantined)
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
			if _, ok := s.Job(lost.ID); ok {
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
			if again, ok := s.Job(j.ID); !ok || len(s.quarantined) != 0 || !bytes.Equal(again.Result, want) {
				t.Errorf("resubmitted sweep did not survive a restart (found %v, quarantined %v): blob not rewritten?",
					ok, s.quarantined)
			}
		})
	}
}

// TestCrashMatrixSweep is TestCrashMatrix for the sweep layout: the
// filesystem dies at every I/O step of an accepted-and-finished sweep —
// the netlists directory, the blob's write, fsync, rename and directory
// fsync, then each record transition — and every restart over the
// surviving directory must start clean (nothing torn, nothing
// quarantined) and converge on the undisturbed payload.
func TestCrashMatrixSweep(t *testing.T) {
	spec := sweepSpec()
	want := sweepOracle(t, spec)
	shared := store.New(128)

	// run drives one daemon over dir until the job is terminal in memory
	// (a dead filesystem fails persistence, not the run) and returns the
	// accepted ID, empty when the crash came before acceptance.
	run := func(dir string, fs chaos.FS) string {
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
		waitTerminal(t, s, j.ID)
		return j.ID
	}

	count := chaos.NewInjected(chaos.OS{}, chaos.Plan{})
	run(t.TempDir(), count)
	steps := count.Steps()
	// 2 to open the state; 4 for the blob and 4 per record transition,
	// each with a Link before its rename (which keeps the replaced file,
	// when there is one); and the move of the one spare that is idle by
	// then to the done record's scratch name.
	if steps != 2+4*(4+1)+1 {
		t.Fatalf("an undisturbed sweep took %d I/O steps, want 23: the layout changed, re-derive the matrix", steps)
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
}

// creations counts, at the FS seam, the files a daemon creates: writes
// to names that do not exist yet. noLinks makes it a filesystem without
// hard links.
type creations struct {
	chaos.FS
	noLinks bool
	n       int
}

func (c *creations) WriteFile(name string, data []byte, perm os.FileMode) error {
	if _, err := os.Lstat(name); os.IsNotExist(err) {
		c.n++
	}
	return c.FS.WriteFile(name, data, perm)
}

func (c *creations) Link(oldname, newname string) error {
	if c.noLinks {
		return os.ErrPermission
	}
	return c.FS.Link(oldname, newname)
}

// TestRecordsRecycleFiles: a job's three record writes create one file
// and unlink none — the version a rename replaces is overwritten by a
// later write instead — so the daemon's speed does not hang on how many
// files the filesystem saw deleted lately. Without hard links the
// writes still land, through fresh files. Either way a restart clears
// the spares and loads every record.
func TestRecordsRecycleFiles(t *testing.T) {
	const jobs = 5
	for _, noLinks := range []bool{false, true} {
		dir := t.TempDir()
		fs := &creations{FS: chaos.OS{}, noLinks: noLinks}
		s, err := New(Options{Dir: dir, Workers: 1, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		for i := 0; i < jobs; i++ {
			j, err := s.Submit(sweepSpec())
			if err != nil {
				t.Fatal(err)
			}
			if fin := waitTerminal(t, s, j.ID); fin.Status != StatusDone {
				t.Fatalf("noLinks=%v: job %s finished %s (%s)", noLinks, j.ID, fin.Status, fin.Error)
			}
		}
		_ = s.Shutdown(context.Background())

		spares, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
		files := 0
		_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, _ error) error {
			if !d.IsDir() {
				files++
			}
			return nil
		})
		if noLinks {
			if fs.n != 1+3*jobs || len(spares) != 0 {
				t.Errorf("without hard links: %d files created, %d spares left; want %d and 0", fs.n, len(spares), 1+3*jobs)
			}
		} else if fs.n != 1+jobs+1 || len(spares) != 1 || files != fs.n {
			// The blob, one record per job, and the one scratch file the
			// first replacement found no spare for — all still there.
			t.Errorf("%d files created, %d spares and %d files left; want %d, 1 and %d", fs.n, len(spares), files, 1+jobs+1, 1+jobs+1)
		}

		s, err = New(Options{Dir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if spares, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(spares) != 0 || len(s.Jobs()) != jobs || len(s.quarantined) != 0 {
			t.Errorf("noLinks=%v: restart left %d spares, %d of %d records, quarantined %v", noLinks, len(spares), len(s.Jobs()), jobs, s.quarantined)
		}
	}
}

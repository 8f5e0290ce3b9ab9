package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
)

// logFrame is one frame of a job log: the record and its sealed bytes.
type logFrame struct {
	job  Job
	data []byte
}

// readLog splits the log in dir into its frames, every one of which must
// verify.
func readLog(t *testing.T, dir string) []logFrame {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	var out []logFrame
	for len(data) > 0 {
		payload, n, err := chaos.OpenFrame(data)
		if err != nil {
			t.Fatalf("the log holds a frame that does not verify: %v", err)
		}
		var dj diskJob
		if err := json.Unmarshal(payload, &dj); err != nil {
			t.Fatal(err)
		}
		out = append(out, logFrame{job: dj.Job, data: data[:n]})
		data = data[n:]
	}
	return out
}

// records lists the IDs the log in dir holds frames of, in order of
// their first frame.
func records(t *testing.T, dir string) []string {
	t.Helper()
	var ids []string
	seen := make(map[string]bool)
	for _, f := range readLog(t, dir) {
		if !seen[f.job.ID] {
			seen[f.job.ID] = true
			ids = append(ids, f.job.ID)
		}
	}
	return ids
}

// lastFrame is id's state in the log in dir: its last frame.
func lastFrame(t *testing.T, dir, id string) []byte {
	t.Helper()
	var last []byte
	for _, f := range readLog(t, dir) {
		if f.job.ID == id {
			last = f.data
		}
	}
	if last == nil {
		t.Fatalf("no frame of %s in the log", id)
	}
	return last
}

// frameOf seals j as the server would append it.
func frameOf(t *testing.T, j *Job) []byte {
	t.Helper()
	data, err := encodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// appendLog adds raw bytes to the end of the log in dir.
func appendLog(t *testing.T, dir string, data ...[]byte) {
	t.Helper()
	if err := (chaos.OS{}).AppendFile(filepath.Join(dir, logName), bytes.Join(data, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLogTornTail: an append cut short at any length leaves a tail that
// does not verify, and recovery drops it without quarantining anything:
// the job is in the state its previous frame recorded, requeued, and
// the log holds nothing of the tear, only frames that verify, the last
// of them the requeued job.
func TestLogTornTail(t *testing.T) {
	lift := Spec{Kind: KindLift, Unit: "ALU"}
	queued := &Job{ID: "j000001", Spec: lift, Status: StatusQueued}
	running := &Job{ID: "j000001", Spec: lift, Status: StatusRunning, Attempts: 1}
	done := &Job{ID: "j000001", Spec: lift, Status: StatusDone, Attempts: 1, Result: json.RawMessage(`{"ok":true}`)}
	last := frameOf(t, done)
	for tear := 0; tear < len(last); tear++ {
		dir := t.TempDir()
		appendLog(t, dir, frameOf(t, queued), frameOf(t, running), last[:tear])
		s, err := New(Options{Dir: dir, Workers: 1})
		if err != nil {
			t.Fatalf("tear %d: %v", tear, err)
		}
		j, err := s.Job("j000001")
		if err != nil || j.Status != StatusQueued || j.Attempts != 1 || len(s.quarantined) != 0 {
			t.Fatalf("tear %d: recovered %+v (%v), quarantined %v; want the running frame's job requeued at attempt 1",
				tear, j, err, s.quarantined)
		}
		if frames := readLog(t, dir); frames[len(frames)-1].job.Status != StatusQueued {
			t.Fatalf("tear %d: the log ends in a %s frame, want the requeued job", tear, frames[len(frames)-1].job.Status)
		}
	}
}

// TestLogFlippedFrame: one flipped bit in a frame is corruption, not a
// tear — with a valid frame after it, and as the last frame of the log,
// where an acknowledged frame may rot as well as anywhere. The frame's
// bytes are copied into quarantine/ under the ID they spell, its job is
// set aside even when an earlier frame of it verifies (that is an older
// state: a cancelled job must not run), the frames after it load, and
// the ID is not handed out again, also after a second restart over the
// rewritten log. The one flip that reads as a tear is one that raises
// the declared length of the last frame: that tail is dropped, and its
// ID still stays taken. (A flip that changes only the case of a
// checksum digit leaves a frame that verifies, with the same payload;
// it loads.) The sample skips two stretches whose flips are other cases:
// the envelope's version digit, where a flip claims a newer envelope and
// refuses the start (TestEnvelopeRejectsNewerVersion), and the id field,
// where a flip makes the bytes spell another ID.
func TestLogFlippedFrame(t *testing.T) {
	lift := Spec{Kind: KindLift, Unit: "ALU"}
	queued := func(id string) []byte { return frameOf(t, &Job{ID: id, Spec: lift, Status: StatusQueued}) }
	cancelled := func(id string) []byte { return frameOf(t, &Job{ID: id, Spec: lift, Status: StatusCancelled}) }
	for _, tc := range []struct {
		name          string
		before, after [][]byte
		hit           []byte // the frame of j000002 that is flipped
	}{
		{"middle", [][]byte{queued("j000001")}, [][]byte{cancelled("j000001")}, queued("j000002")},
		{"later-frame", [][]byte{queued("j000001"), queued("j000002")}, [][]byte{cancelled("j000001")}, cancelled("j000002")},
		{"last", [][]byte{queued("j000001"), cancelled("j000001")}, nil, cancelled("j000002")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			version := len(chaos.EnvelopeMagic) + 1
			id := bytes.Index(tc.hit, []byte(`"id": "j000002"`))
			if id < 0 {
				t.Fatal("the frame does not spell its id as the recovery scan expects")
			}
			for bit := 0; bit < 8*len(tc.hit); bit += 7 {
				if i := bit / 8; i == version || (i >= id && i < id+len(`"id": "j000002"`)) {
					continue
				}
				flipped := append([]byte(nil), tc.hit...)
				flipped[bit/8] ^= 1 << (bit % 8)
				dir := t.TempDir()
				appendLog(t, dir, append(append(append([][]byte(nil), tc.before...), flipped), tc.after...)...)
				s, err := New(Options{Dir: dir, Workers: 1})
				if err != nil {
					t.Fatalf("bit %d: %v", bit, err)
				}
				_, _, err = chaos.OpenFrame(flipped)
				switch {
				case err == nil:
					if j, err := s.Job("j000002"); err != nil || j.Status != StatusCancelled && tc.name != "middle" || len(s.quarantined) != 0 {
						t.Fatalf("bit %d: a frame that still verifies was not loaded (%+v, quarantined %v)", bit, j, s.quarantined)
					}
					continue
				case errors.Is(err, chaos.ErrTruncated) && tc.after == nil:
					if q := s.MetricsSnapshot().Quarantined; len(q) != 0 {
						t.Fatalf("bit %d: a tail that reads as torn was quarantined (%v)", bit, q)
					}
				default:
					if q := s.MetricsSnapshot().Quarantined; len(q) != 1 || q[0] != "j000002.json" {
						t.Fatalf("bit %d: quarantine census = %v, want [j000002.json]", bit, q)
					}
					if kept, err := os.ReadFile(filepath.Join(dir, chaos.QuarantineDirName, "j000002.json")); err != nil || !bytes.Equal(kept, flipped) {
						t.Fatalf("bit %d: the flipped frame is not preserved in quarantine (err %v)", bit, err)
					}
				}
				if j, err := s.Job("j000002"); !errors.Is(err, errNotFound) {
					t.Fatalf("bit %d: job j000002 was served from a frame older than the flipped one (%+v)", bit, j)
				}
				if j, err := s.Job("j000001"); err != nil || j.Status != StatusCancelled {
					t.Fatalf("bit %d: the frames around the flip did not load (%+v)", bit, j)
				}
				if len(s.quarantined) > 0 {
					// The rewritten log no longer spells the quarantined
					// ID; quarantine/ still does.
					if s, err = New(Options{Dir: dir, Workers: 1}); err != nil {
						t.Fatalf("bit %d: second restart: %v", bit, err)
					}
				}
				j, err := s.Submit(lift)
				if err != nil {
					t.Fatal(err)
				}
				if j.ID != "j000003" {
					t.Fatalf("bit %d: the next job is %s, want j000003 past the set-aside ID", bit, j.ID)
				}
			}
		})
	}
}

// syncGate is a filesystem that records which frames each log fsync
// covered and holds every log fsync for a moment, so frames pile up
// behind it.
type syncGate struct {
	chaos.FS
	hold time.Duration

	mu       sync.Mutex
	on       bool
	appended []string        // IDs of the frames appended, in order
	durable  map[string]bool // IDs covered by an fsync that returned
	syncs    int
}

func (g *syncGate) AppendFile(name string, data []byte, perm os.FileMode) error {
	if err := g.FS.AppendFile(name, data, perm); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(data) > 0 {
		payload, n, err := chaos.OpenFrame(data)
		if err != nil {
			return err
		}
		var j Job
		if err := json.Unmarshal(payload, &j); err != nil {
			return err
		}
		g.appended = append(g.appended, j.ID)
		data = data[n:]
	}
	return nil
}

func (g *syncGate) SyncFile(name string) error {
	g.mu.Lock()
	on, covered := g.on && filepath.Base(name) == logName, append([]string(nil), g.appended...)
	g.mu.Unlock()
	if !on {
		return g.FS.SyncFile(name)
	}
	time.Sleep(g.hold)
	if err := g.FS.SyncFile(name); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.syncs++
	for _, id := range covered {
		g.durable[id] = true
	}
	return nil
}

// TestGroupCommit: concurrent saves share fsyncs — fewer syncs than
// frames — and still no save returns before an fsync that began after
// its frame was appended has returned.
func TestGroupCommit(t *testing.T) {
	const frames = 16
	dir := t.TempDir()
	fs := &syncGate{FS: chaos.OS{}, hold: 5 * time.Millisecond, durable: make(map[string]bool)}
	s, err := New(Options{Dir: dir, Workers: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	fs.on = true
	var wg sync.WaitGroup
	for i := 1; i <= frames; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := s.save(&Job{ID: id, Spec: Spec{Kind: KindLift, Unit: "ALU"}, Status: StatusQueued}); err != nil {
				t.Error(err)
				return
			}
			fs.mu.Lock()
			defer fs.mu.Unlock()
			if !fs.durable[id] {
				t.Errorf("save of %s returned before an fsync covering its frame", id)
			}
		}(fmt.Sprintf("j%06d", i))
	}
	wg.Wait()
	if fs.syncs >= frames || len(fs.appended) != frames {
		t.Errorf("%d frames appended with %d fsyncs; want %d frames sharing fewer fsyncs", len(fs.appended), fs.syncs, frames)
	}
	if got := records(t, dir); len(got) != frames {
		t.Errorf("the log holds %d jobs, want %d", len(got), frames)
	}
}

// TestRefusedFrameTruncated: when the disk refuses the fsync of a new
// job's first frame, the submission gets a 503 and the log is cut back
// to its length before the frame, so a restart finds no job. When the
// cut fails too, the log refuses every later append — no later fsync
// makes the refused frame durable — until a restart.
func TestRefusedFrameTruncated(t *testing.T) {
	const body = `{"kind":"lift","unit":"ALU"}`
	// 2 steps open the state and 4 write the fresh log; the queued frame
	// is an append (7) and an fsync (8), and the cut a truncate (9) and
	// an fsync (10).
	for _, tc := range []struct {
		name   string
		faults []chaos.Fault
	}{
		{"cut", []chaos.Fault{{Step: 8, Kind: chaos.NoSpace}}},
		{"cut-fails", []chaos.Fault{{Step: 8, Kind: chaos.NoSpace}, {Step: 9, Kind: chaos.IOErr}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := chaos.NewInjected(chaos.OS{}, chaos.Plan{Faults: tc.faults})
			s, err := New(Options{Dir: dir, Workers: 1, FS: fs}) // never started: the job is written queued
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			if w := post(h, body); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "no space") {
				t.Fatalf("a submission whose frame the disk refused answered %d: %s", w.Code, w.Body)
			}
			broken := len(tc.faults) > 1
			steps := fs.Steps()
			w := post(h, body)
			if broken {
				if w.Code != http.StatusServiceUnavailable || fs.Steps() != steps {
					t.Errorf("after a failed cut, a submission answered %d with %d I/O steps; want 503 and none", w.Code, fs.Steps()-steps)
				}
			} else if w.Code != http.StatusAccepted {
				t.Errorf("after a clean cut, a submission answered %d: %s", w.Code, w.Body)
			}
			_ = s.Shutdown(context.Background())
			if !broken {
				if got := records(t, dir); len(got) != 1 || got[0] != "j000002" {
					t.Fatalf("the log holds jobs %v, want only the accepted j000002", got)
				}
			}

			s, err = New(Options{Dir: dir, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Job("j000001"); !errors.Is(err, errNotFound) && !broken {
				t.Error("a restart found the refused job")
			}
			if w := post(s.Handler(), body); w.Code != http.StatusAccepted {
				t.Errorf("a restart did not clear the refusal: answered %d", w.Code)
			}
		})
	}
}

// TestOldLayoutRefused: a state dir holding records in the old
// one-file-per-job layout is refused at start, naming them, and left
// untouched.
func TestOldLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	rec := frameOf(t, &Job{ID: "j000001", Spec: Spec{Kind: KindLift, Unit: "ALU"}, Status: StatusQueued})
	for _, name := range []string{"j000001.json", "j000002.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), rec, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := New(Options{Dir: dir, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "j000001.json, j000002.json") {
		t.Fatalf("New over an old-layout dir = %v, want a refusal naming both records", err)
	}
	if _, err := os.Stat(filepath.Join(dir, logName)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused dir got a log (%v)", err)
	}
}

// TestNetlistSHAAllocates: hashing a netlist does not copy it.
func TestNetlistSHAAllocates(t *testing.T) {
	src := strings.Repeat(tinyVerilog(1), 64)
	if n := testing.AllocsPerRun(20, func() { netlistSHA(src) }); n > 1 {
		t.Errorf("netlistSHA made %v allocations per hash of a %d-byte source, want at most 1", n, len(src))
	}
}

// shaSink keeps BenchmarkNetlistSHA's result alive.
var shaSink string

// BenchmarkNetlistSHA hashes a source the size of fleet-mixed's netlist.
func BenchmarkNetlistSHA(b *testing.B) {
	src := strings.Repeat("x", 297<<10)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shaSink = netlistSHA(src)
	}
}

// TestRestartKeepsCleanLog: a restart over a log that lost nothing
// leaves the file in place — the same file, the same bytes — and one
// that requeues a running job appends that job's queued frame to it,
// after cutting off a torn tail. A log more than twice the size of its
// jobs' last frames is compacted into a fresh file.
func TestRestartKeepsCleanLog(t *testing.T) {
	lift := Spec{Kind: KindLift, Unit: "ALU"}
	done := frameOf(t, &Job{ID: "j000001", Spec: lift, Status: StatusDone, Attempts: 1, Result: json.RawMessage(`{"ok":true}`)})
	running := frameOf(t, &Job{ID: "j000002", Spec: lift, Status: StatusRunning, Attempts: 1})
	requeued := frameOf(t, &Job{ID: "j000002", Spec: lift, Status: StatusQueued, Attempts: 1})
	for _, tc := range []struct {
		name      string
		log, want []byte
		sameFile  bool
	}{
		{"clean", done, done, true},
		{"requeue", cat(done, running), cat(done, running, requeued), true},
		{"torn", cat(done, running, done[:60]), cat(done, running, requeued), true},
		{"superseded", cat(done, done, done), done, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			appendLog(t, dir, tc.log)
			path := filepath.Join(dir, logName)
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := New(Options{Dir: dir, Workers: 1}); err != nil {
				t.Fatal(err)
			}
			after, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, tc.want) || os.SameFile(before, after) != tc.sameFile {
				t.Errorf("after a restart the log is %d bytes (want %d), same file %v (want %v)",
					len(got), len(tc.want), os.SameFile(before, after), tc.sameFile)
			}
		})
	}
}

// cat concatenates frames.
func cat(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

// TestLogChunkedScan: recovery reads the log a chunk at a time, and
// what it finds does not depend on where the chunks end — not for
// frames that straddle a chunk boundary, a corrupt stretch, or a torn
// tail — nor does the log a restart rewrites a chunk at a time.
func TestLogChunkedScan(t *testing.T) {
	defer func(n int) { logChunk = n }(logChunk)
	lift := Spec{Kind: KindLift, Unit: "ALU"}
	flipped := frameOf(t, &Job{ID: "j000003", Spec: lift, Status: StatusCancelled})
	flipped[len(flipped)-3] ^= 0x10
	log := cat(
		frameOf(t, &Job{ID: "j000001", Spec: lift, Status: StatusQueued}),
		frameOf(t, &Job{ID: "j000002", Spec: lift, Status: StatusRunning, Attempts: 1}),
		frameOf(t, &Job{ID: "j000003", Spec: lift, Status: StatusQueued}),
		flipped,
		frameOf(t, &Job{ID: "j000001", Spec: lift, Status: StatusDone, Attempts: 1, Result: json.RawMessage(`{"ok":true}`)}),
		[]byte("not a frame at all"),
		frameOf(t, &Job{ID: "j000004", Spec: lift, Status: StatusQueued}),
		frameOf(t, &Job{ID: "j000005", Spec: lift, Status: StatusQueued})[:80],
	)
	scan := func(chunk int) (string, map[string][]byte) {
		logChunk = chunk
		dir := t.TempDir()
		appendLog(t, dir, log)
		rec, err := loadJobs(chaos.OS{}, dir)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		var jobs []string
		for _, j := range rec.jobs {
			jobs = append(jobs, fmt.Sprintf("%s:%s@%d+%d", j.ID, j.Status, rec.frames[j.ID].off, rec.frames[j.ID].n))
		}
		kept := make(map[string][]byte)
		for _, name := range rec.quarantined {
			kept[name], _ = os.ReadFile(filepath.Join(dir, chaos.QuarantineDirName, name))
		}
		// The quarantine makes a restart rewrite the log, a chunk at a
		// time too.
		dir = t.TempDir()
		appendLog(t, dir, log)
		if _, err := New(Options{Dir: dir, Workers: 1}); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		kept[logName], _ = os.ReadFile(filepath.Join(dir, logName))
		return fmt.Sprintf("jobs %v quarantined %v seq %d size %d dropped %v", jobs, rec.quarantined, rec.seq, rec.size, rec.dropped), kept
	}
	want, wantKept := scan(1 << 20)
	if !strings.Contains(want, "seq 5 ") || !strings.Contains(want, "dropped true") || len(wantKept) != 3 {
		t.Fatalf("one chunk: %s; want two stretches quarantined, the tail dropped and seq 5", want)
	}
	for _, chunk := range []int{1, 5, 9, 64, 333, 1000} {
		got, kept := scan(chunk)
		if got != want {
			t.Errorf("chunk %d: %s\nwant %s", chunk, got, want)
		}
		for name, data := range wantKept {
			if !bytes.Equal(kept[name], data) {
				t.Errorf("chunk %d: %s differs", chunk, name)
			}
		}
	}
}

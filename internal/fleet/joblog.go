package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/chaos"
)

// logName is the state dir's one job-record file. Every transition of
// every job appends that job's sealed record (a frame) to it, and the
// last frame of an ID that verifies is that job's state.
const logName = "jobs.log"

// jobLog appends frames to the log with group commit: a frame is
// durable, and its append returns, only once an fsync that began after
// the frame was written has returned. The frames waiting at any moment
// form the next batch, written with one append and one fsync by the
// goroutine whose frame heads it; every other goroutine in the batch
// waits for that writer's verdict. So concurrent transitions share an
// fsync, and nobody writes a batch it is not in.
type jobLog struct {
	fs   chaos.FS
	path string

	mu sync.Mutex
	// size is how many bytes the log holds that no failed batch left: a
	// failed batch is cut back to it.
	size  int64
	queue []*pending // frames waiting for the next batch, oldest first
	busy  bool       // a batch is being written; its writer wakes queue[0] next
	// broken is set when a failed batch could not be cut back off the
	// log: every later append fails, so no later fsync makes a frame its
	// submitter was told was refused durable. A restart clears it.
	broken error
}

// pending is one frame waiting for its batch. lead, at and err are set
// before wake closes: lead if this frame heads the next batch, whose
// writer is then its own goroutine, and otherwise where its batch put
// it and how that batch ended.
type pending struct {
	data []byte
	lead bool
	at   frame
	err  error
	wake chan struct{}
}

// append makes data, one frame (or several, back to back), durable at
// the end of the log and returns where it landed.
func (l *jobLog) append(data []byte) (frame, error) {
	f := &pending{data: data, wake: make(chan struct{})}
	l.mu.Lock()
	l.queue = append(l.queue, f)
	if l.busy {
		l.mu.Unlock()
		<-f.wake
		if !f.lead {
			return f.at, f.err
		}
		l.mu.Lock()
	}
	batch, base, err := l.queue, l.size, l.broken
	l.queue, l.busy = nil, true
	l.mu.Unlock()

	var n int64
	var cut error
	if err == nil {
		n, cut, err = l.write(batch, base)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.size += n
	if cut != nil {
		l.broken = fmt.Errorf("fleet: %s refuses appends until a restart: a failed append could not be cut back (%v): %w", logName, cut, err)
	}
	off := int(base)
	for _, g := range batch {
		g.at, g.err = frame{off, len(g.data)}, err
		off += len(g.data)
		if g != f {
			close(g.wake)
		}
	}
	if len(l.queue) > 0 {
		l.queue[0].lead = true
		close(l.queue[0].wake)
	} else {
		l.busy = false
	}
	return f.at, err
}

// write appends batch at offset base and fsyncs it, returning the bytes
// it added. On failure it cuts the log back to base and fsyncs that;
// cut reports a cut that did not land.
func (l *jobLog) write(batch []*pending, base int64) (n int64, cut, err error) {
	buf := batch[0].data
	if len(batch) > 1 {
		buf = nil
		for _, f := range batch {
			buf = append(buf, f.data...)
		}
	}
	if err = l.fs.AppendFile(l.path, buf, 0o644); err == nil {
		err = l.fs.SyncFile(l.path)
	}
	if err == nil {
		return int64(len(buf)), nil, nil
	}
	if cut = l.fs.Truncate(l.path, base); cut == nil {
		cut = l.fs.SyncFile(l.path)
	}
	return 0, cut, err
}

// recover makes the log hold what New recovered: the frames rec.frames
// names, then those of changed, the jobs whose state recovery moved,
// appended as one batch. It leaves in rec.frames where each job's frame
// is then. A log that is missing, had a stretch quarantined, or is over
// twice the size of its jobs' last frames is compacted first. Otherwise
// it stays as it is, with a torn tail cut off it. So a restart over a
// large log reads it once and, unless it found corruption, writes little
// more than what changed.
func (l *jobLog) recover(rec *recovery, changed []*Job) error {
	live := 0
	for _, f := range rec.frames {
		live += f.n
	}
	if rec.size == 0 || len(rec.quarantined) > 0 || rec.size > 2*live {
		if err := l.compact(rec); err != nil {
			return err
		}
	} else if l.size = int64(rec.size); rec.dropped {
		err := l.fs.Truncate(l.path, l.size)
		if err == nil {
			err = l.fs.SyncFile(l.path)
		}
		if err != nil {
			return fmt.Errorf("fleet: cutting a torn append off %s: %w", logName, err)
		}
	}
	if len(changed) == 0 {
		return nil
	}
	var batch []byte
	for _, j := range changed {
		data, err := encodeJob(j)
		if err != nil {
			return err
		}
		rec.frames[j.ID] = frame{len(batch), len(data)}
		batch = append(batch, data...)
	}
	at, err := l.append(batch)
	for _, j := range changed {
		f := rec.frames[j.ID]
		rec.frames[j.ID] = frame{at.off + f.off, f.n}
	}
	return err
}

// compact replaces the log with the frames rec.frames names, each
// recovered job's last one, copied in log order so the old log is read
// once, and written a chunk at a time (chaos.ReplaceAtomic): the log's
// only compaction.
func (l *jobLog) compact(rec *recovery) error {
	type kept struct {
		id string
		f  frame
	}
	var frames []kept
	for id, f := range rec.frames {
		frames = append(frames, kept{id, f})
	}
	slices.SortFunc(frames, func(a, b kept) int { return a.f.off - b.f.off })
	old := &frameReader{fs: l.fs, path: l.path, chunk: logChunk}
	l.size = 0
	return chaos.ReplaceAtomic(l.fs, l.path, 0o644, func(write func([]byte) error) error {
		var piece []byte
		for i, k := range frames {
			data, _, err := old.read(k.f)
			if err != nil {
				return err
			}
			rec.frames[k.id] = frame{int(l.size) + len(piece), len(data)}
			if piece = append(piece, data...); len(piece) >= logChunk || i == len(frames)-1 {
				if err := write(piece); err != nil {
					return err
				}
				l.size += int64(len(piece))
				piece = piece[:0]
			}
		}
		return nil
	})
}

// frameReader reads verified frames back out of the log, chunk bytes or
// the frame, whichever is more, at a time: reads in log order read each
// stretch of it once.
type frameReader struct {
	fs    chaos.FS
	path  string
	chunk int
	off   int    // where buf starts in the log
	buf   []byte // what the last read returned
}

// read returns the frame at f and its payload, once it verifies.
func (r *frameReader) read(f frame) (data, payload []byte, err error) {
	if f.off < r.off || f.off+f.n > r.off+len(r.buf) {
		if r.buf, err = r.fs.ReadAt(r.path, int64(f.off), max(f.n, r.chunk)); err != nil {
			return nil, nil, err
		}
		r.off = f.off
	}
	if f.off+f.n > r.off+len(r.buf) {
		return nil, nil, fmt.Errorf("fleet: %s ends inside the %d-byte frame at byte %d", logName, f.n, f.off)
	}
	data = r.buf[f.off-r.off:][:f.n]
	payload, n, err := chaos.OpenFrame(data)
	if err == nil && n != f.n {
		err = fmt.Errorf("chaos: sealed record corrupt: %d bytes, not %d", n, f.n)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: the frame at byte %d of %s: %w", f.off, logName, err)
	}
	return data, payload, nil
}

// result reads j's result back from its terminal frame, j.at: nil if
// j has no durable terminal frame or the frame carries none. A frame
// that does not verify, or is not the record j is, is an error.
func (l *jobLog) result(j *Job) (json.RawMessage, error) {
	if j.at.n == 0 {
		return nil, nil
	}
	_, payload, err := (&frameReader{fs: l.fs, path: l.path}).read(j.at)
	var dj diskJob
	if err == nil {
		err = json.Unmarshal(payload, &dj)
	}
	if err == nil && (dj.ID != j.ID || dj.Status != j.Status) {
		err = fmt.Errorf("the frame at byte %d is job %s %s", j.at.off, dj.ID, dj.Status)
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: reading job %s's result: %w", j.ID, err)
	}
	return dj.ResultRaw, nil
}

// encodeJob is j's frame: the persisted form sealed in the self-verifying
// envelope. A sweep's frame is written without the source, which lives
// once, in the blob its netlist hash names.
func encodeJob(j *Job) ([]byte, error) {
	dj := diskJob{Job: *j, ResultRaw: j.Result}
	dj.Job.Result = nil
	dj.Spec.Verilog = ""
	data, err := json.MarshalIndent(&dj, "", "  ")
	if err != nil {
		return nil, err
	}
	return chaos.Seal(data), nil
}

// recovery is what loadJobs finds in a state dir.
type recovery struct {
	jobs        []*Job           // each job's last valid frame, in ID order (idLess)
	live        map[string]*Job  // the same, by ID, while the scan runs
	frames      map[string]frame // where those frames are in the log
	quarantined []string         // what was copied into quarantine/, by name
	seq         int              // the highest job number spelled anywhere in the log
	size        int              // the log's length, without a torn tail
	dropped     bool             // a torn tail was dropped
	ckpts       []string         // the IDs of the jNNNNNN.ckpt files in dir
}

// frame is where a stretch of the log starts and how long it is.
type frame struct{ off, n int }

// logChunk is how much of the log recovery reads at a time: a restart
// holds a chunk of the log beside the jobs it decodes, never all of it.
var logChunk = 1 << 20

// loadJobs reads the log in dir. A tail that is a strict prefix of a
// frame (chaos.ErrTruncated) is a torn append, never acknowledged, and
// is dropped. Any other stretch that does not verify is corruption —
// also at the end of the log, where a whole frame that was fsynced and
// acknowledged may have rotted: its bytes are copied into quarantine/,
// named after the ID they spell when they spell one, that job is set
// aside unless a later frame of it verifies, and the scan resumes at the
// next frame that verifies. So is a frame that verifies but whose id or
// netlist hash would take a path outside dir (trusted). Every ID the log
// spells, loaded, set aside or dropped, stays taken, as does every ID
// named in quarantine/ by an earlier start. A frame from newer tooling
// refuses the start, as does a dir in the old layout of one
// jNNNNNN.json file per job. Leftover .tmp debris is deleted: by the
// atomic-rename contract it was never committed. The checkpoints in dir
// are listed for New, which resolves the netlist hashes the jobs carry,
// hands the log what it recovered (jobLog.recover) and then deletes the
// checkpoints no live job will read.
func loadJobs(fs chaos.FS, dir string) (*recovery, error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rec := &recovery{live: make(map[string]*Job), frames: make(map[string]frame)}
	var old, debris []string
	hasLog, hasQuarantine := false, false
	for _, e := range ents {
		name := e.Name()
		id, ckpt := strings.CutSuffix(name, ".ckpt")
		switch {
		case e.IsDir():
			hasQuarantine = hasQuarantine || name == chaos.QuarantineDirName
		case name == logName:
			hasLog = true
		case strings.HasSuffix(name, ".tmp"):
			debris = append(debris, name)
		case ckpt && validID(id):
			rec.ckpts = append(rec.ckpts, id)
		case strings.HasPrefix(name, "j") && strings.HasSuffix(name, ".json"):
			old = append(old, name)
		}
	}
	if len(old) > 0 {
		return nil, fmt.Errorf("fleet: %s holds job records in the one-file-per-job layout this build no longer reads (%s); it keeps them in %s",
			dir, strings.Join(old, ", "), logName)
	}
	for _, name := range debris {
		_ = fs.Remove(filepath.Join(dir, name))
	}
	if hasQuarantine {
		// A job set aside by an earlier start is spelled only here once
		// that start rewrote the log; its ID stays taken.
		qents, err := fs.ReadDir(filepath.Join(dir, chaos.QuarantineDirName))
		if err != nil {
			return nil, err
		}
		for _, e := range qents {
			if id, ok := strings.CutSuffix(e.Name(), ".json"); ok && validID(id) {
				rec.see(id)
			}
		}
	}
	if hasLog {
		if err := rec.scan(fs, dir); err != nil {
			return nil, err
		}
	}
	for _, j := range rec.live {
		rec.jobs = append(rec.jobs, j)
	}
	sort.Slice(rec.jobs, func(a, b int) bool { return idLess(rec.jobs[a].ID, rec.jobs[b].ID) })
	return rec, nil
}

// scan reads the log in dir a chunk at a time; buf holds the bytes from
// offset off on that it has read and not yet consumed.
func (r *recovery) scan(fs chaos.FS, dir string) error {
	path := filepath.Join(dir, logName)
	var buf []byte
	off, eof := 0, false
	for len(buf) > 0 || !eof {
		payload, n, err := chaos.OpenFrame(buf)
		if errors.Is(err, chaos.ErrNewerVersion) {
			return fmt.Errorf("fleet: %s at byte %d: %w", logName, off, err)
		}
		end := n
		if err != nil {
			end = nextFrame(buf, 1)
		}
		if end == len(buf) && !eof {
			// The frame, or the stretch before the next one, may run on
			// past what has been read. A fresh array lets the consumed
			// bytes go.
			chunk, err := fs.ReadAt(path, int64(off+len(buf)), logChunk)
			if err != nil {
				return err
			}
			buf = append(append(make([]byte, 0, len(buf)+len(chunk)), buf...), chunk...)
			eof = len(chunk) < logChunk
			continue
		}
		switch {
		case errors.Is(err, chaos.ErrTruncated) && end == len(buf):
			r.seeAll(buf) // a torn append: its ID may have been reserved
			r.size, r.dropped = off, true
			return nil
		case err != nil:
			if err := r.setAside(fs, dir, buf[:end], off, ""); err != nil {
				return err
			}
		default:
			var dj diskJob
			if err := json.Unmarshal(payload, &dj); err != nil || trusted(&dj.Job) != nil {
				id := ""
				if err == nil && validID(dj.ID) {
					id = dj.ID
				}
				if err := r.setAside(fs, dir, buf[:n], off, id); err != nil {
					return err
				}
				break
			}
			j := dj.Job // a terminal job's result stays in its frame
			r.live[j.ID] = &j
			r.frames[j.ID] = frame{off, n}
			r.see(j.ID)
		}
		buf, off = buf[end:], off+end
	}
	r.size = off
	return nil
}

// nextFrame is the offset of the first frame at or after from that
// verifies (or is from newer tooling), or len(data) if there is none.
func nextFrame(data []byte, from int) int {
	for from < len(data) {
		i := bytes.Index(data[from:], []byte(chaos.EnvelopeMagic))
		if i < 0 {
			break
		}
		from += i
		if _, _, err := chaos.OpenFrame(data[from:]); err == nil || errors.Is(err, chaos.ErrNewerVersion) {
			return from
		}
		from++
	}
	return len(data)
}

// idField finds the job ids a stretch of frame bytes spells.
var idField = regexp.MustCompile(`"id":\s*"(j[0-9]+)"`)

// seeAll keeps seq ahead of every job ID data spells, and returns the
// first of them, or "".
func (r *recovery) seeAll(data []byte) (first string) {
	for _, m := range idField.FindAllSubmatch(data, -1) {
		if id := string(m[1]); validID(id) {
			r.see(id)
			if first == "" {
				first = id
			}
		}
	}
	return first
}

// setAside durably copies a stretch of the log recovery will not load
// into dir/quarantine/ — the evidence, kept for a post-mortem while the
// daemon serves on — named id.json, where id is the first ID the bytes
// spell unless the caller knows it, or after its offset when there is
// none or that name is taken. The job id names is set aside with it:
// its earlier frames are older states, and serving one would bring back
// a job its client saw move on (a cancelled job would run). seq stays
// ahead of every ID the stretch spells: its submitter may still be
// asking for it, and a later quarantine of the name would overwrite the
// evidence.
func (r *recovery) setAside(fs chaos.FS, dir string, data []byte, off int, id string) error {
	if spelled := r.seeAll(data); id == "" {
		id = spelled
	}
	name := fmt.Sprintf("frame-%d.json", off)
	if id != "" {
		r.see(id)
		delete(r.live, id)
		delete(r.frames, id)
		if !slices.Contains(r.quarantined, id+".json") {
			name = id + ".json"
		}
	}
	qdir := filepath.Join(dir, chaos.QuarantineDirName)
	err := fs.MkdirAll(qdir, 0o755)
	if err == nil {
		err = chaos.WriteAtomic(fs, filepath.Join(qdir, name), data, 0o644)
	}
	if err != nil {
		return fmt.Errorf("fleet: job record %s untrusted and its quarantine failed: %w", name, err)
	}
	r.quarantined = append(r.quarantined, name)
	return nil
}

// see advances seq past a job ID that is taken.
func (r *recovery) see(id string) {
	if n, _ := strconv.Atoi(id[1:]); n > r.seq {
		r.seq = n
	}
}

// idLess orders job IDs by number. validID spells every number with no
// extra zeros, so a longer ID is a larger number.
func idLess(a, b string) bool { return len(a) < len(b) || len(a) == len(b) && a < b }

// validID reports whether id is spelled as the server spells IDs: j and
// at least six digits, no sign, no extra zeros. An ID names the job's
// checkpoint file, and one number names one job.
func validID(id string) bool {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return err == nil && n > 0 && id == fmt.Sprintf("j%06d", n)
}

// trusted checks the two fields recovery joins into paths before any
// path is built from them: the id must be one the server would assign,
// so it names a checkpoint in dir and nothing else, and a netlist hash
// must be 64 lowercase hex digits, so it names a blob in the netlists
// directory and nothing else.
func trusted(j *Job) error {
	if !validID(j.ID) {
		return fmt.Errorf("field id %q is not a job ID", j.ID)
	}
	if h := j.NetlistSHA; h != "" && !isSHA(h) {
		return fmt.Errorf("field netlist_sha256 %q is not 64 lowercase hex digits", h)
	}
	return nil
}

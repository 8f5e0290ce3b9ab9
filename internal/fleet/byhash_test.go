package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// byHash is spec named by its netlist's hash, without the source.
func byHash(spec Spec) Spec {
	spec.NetlistSHA, spec.Verilog = netlistSHA(spec.Verilog), ""
	return spec
}

// post sends body to POST /jobs on h and returns the recorded answer.
func post(h http.Handler, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/jobs", strings.NewReader(body)))
	return w
}

// newStarted is a running daemon over a fresh state dir, without HTTP.
func newStarted(t *testing.T) *Server {
	t.Helper()
	s, err := New(Options{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	return s
}

// TestByHashMatchesInline: a sweep named by the hash of a netlist the
// daemon holds writes the record an inline submission writes, byte for
// byte, and produces the same payload.
func TestByHashMatchesInline(t *testing.T) {
	spec := sweepSpec()
	inline := unstarted(t, Options{})
	ji, err := inline.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	hashed := unstarted(t, Options{})
	if _, err := hashed.netlists.put(netlistSHA(spec.Verilog), spec.Verilog); err != nil {
		t.Fatal(err)
	}
	jh, err := hashed.Submit(byHash(spec))
	if err != nil {
		t.Fatal(err)
	}
	ri, rh := lastFrame(t, inline.opts.Dir, ji.ID), lastFrame(t, hashed.opts.Dir, jh.ID)
	if !bytes.Equal(ri, rh) {
		t.Errorf("by-hash record differs from the inline one:\n by hash: %s\n inline:  %s", rh, ri)
	}
	if probeKey(jh) != probeKey(ji) || jh.Spec.Verilog != spec.Verilog {
		t.Errorf("by-hash job is not the inline one to its store key and source")
	}

	want := sweepOracle(t, spec)
	s := newStarted(t)
	if _, err := s.netlists.put(netlistSHA(spec.Verilog), spec.Verilog); err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(byHash(spec))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitServerDone(t, s, j.ID).Result; !bytes.Equal(got, want) {
		t.Errorf("by-hash sweep payload differs from the inline one:\n by hash: %s\n inline:  %s", got, want)
	}
}

// TestByHashUnknownConflicts: a hash the daemon holds no netlist for is
// a 409, and it consumes no job ID.
func TestByHashUnknownConflicts(t *testing.T) {
	s := unstarted(t, Options{})
	w := post(s.Handler(), fmt.Sprintf(`{"kind":"sweep","netlist_sha256":%q}`, netlistSHA(tinyVerilog(1))))
	if w.Code != http.StatusConflict {
		t.Fatalf("unknown hash answered %d, want 409: %s", w.Code, w.Body)
	}
	if s.seq != 0 || len(s.Jobs()) != 0 {
		t.Errorf("a 409 left seq %d and %d jobs, want 0 and 0", s.seq, len(s.Jobs()))
	}
}

// TestByHashRejectsBadNames: a hash that could name anything but a blob
// in the netlists directory, a hash on a job that has no netlist, and a
// hash that is not its inline source's are the client's error — 400,
// before a single filesystem operation.
func TestByHashRejectsBadNames(t *testing.T) {
	src := tinyVerilog(1)
	h := netlistSHA(src)
	bodies := map[string]string{
		"path":      `{"kind":"sweep","netlist_sha256":"../../etc/passwd"}`,
		"upper":     fmt.Sprintf(`{"kind":"sweep","netlist_sha256":%q}`, strings.ToUpper(h)),
		"63 digits": fmt.Sprintf(`{"kind":"sweep","netlist_sha256":%q}`, h[:63]),
		"lift":      fmt.Sprintf(`{"kind":"lift","unit":"ALU","netlist_sha256":%q}`, h),
		"mismatch":  fmt.Sprintf(`{"kind":"sweep","netlist_sha256":%q,"verilog":%q}`, h, tinyVerilog(2)),
	}
	fs := chaos.NewInjected(chaos.OS{}, chaos.Plan{})
	s := unstarted(t, Options{FS: fs})
	handler := s.Handler()
	for name, body := range bodies {
		before := fs.Steps()
		if w := post(handler, body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: answered %d, want 400: %s", name, w.Code, w.Body)
		}
		if n := fs.Steps() - before; n != 0 {
			t.Errorf("%s: %d filesystem operations before the 400", name, n)
		}
	}
	if s.seq != 0 || len(s.Jobs()) != 0 {
		t.Errorf("rejected submissions left seq %d and %d jobs", s.seq, len(s.Jobs()))
	}
	// A hash with its own source is accepted like the source alone.
	if w := post(handler, fmt.Sprintf(`{"kind":"sweep","netlist_sha256":%q,"verilog":%q}`, h, src)); w.Code != http.StatusAccepted {
		t.Errorf("a hash with its own source answered %d: %s", w.Code, w.Body)
	}
}

// TestByHashAfterRestart: a restarted daemon resolves a hash from the
// blob on disk once its envelope and SHA-256 check out. A corrupted blob
// is unknown (409), and the client's inline resend heals it.
func TestByHashAfterRestart(t *testing.T) {
	spec := sweepSpec()
	h := netlistSHA(spec.Verilog)
	for _, corrupt := range []bool{false, true} {
		dir := t.TempDir()
		j := queueOnDisk(t, dir, spec)
		// Without the log a restart loads nothing: only the blob holds
		// the netlist.
		if err := os.Remove(filepath.Join(dir, logName)); err != nil {
			t.Fatal(err)
		}
		blob := blobPath(dir, j)
		if corrupt {
			data, err := os.ReadFile(blob)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x10
			if err := os.WriteFile(blob, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, c := newTestServer(t, Options{Dir: dir, Workers: 1})
		code, counts := http.StatusAccepted, NetlistCounts{ByHash: 1, Held: 1}
		if corrupt {
			// The direct POST and the client's first attempt are unknown.
			code, counts = http.StatusConflict, NetlistCounts{Unknown: 2, Inline: 1, Held: 1}
		}
		if w := post(s.Handler(), fmt.Sprintf(`{"kind":"sweep","netlist_sha256":%q,"sp_cycles":32}`, h)); w.Code != code {
			t.Fatalf("corrupt=%v: by-hash submission answered %d, want %d: %s", corrupt, w.Code, code, w.Body)
		}
		if corrupt {
			if _, err := c.Submit(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(blob)
			if err != nil {
				t.Fatal(err)
			}
			if payload, _, err := chaos.Open(data); err != nil || string(payload) != spec.Verilog {
				t.Errorf("the inline resend did not heal the blob (%v)", err)
			}
		}
		for _, j := range s.Jobs() {
			waitServerDone(t, s, j.ID)
		}
		if got := s.MetricsSnapshot().Netlists; got != counts {
			t.Errorf("corrupt=%v: netlist counts %+v, want %+v", corrupt, got, counts)
		}
	}
}

// TestSubmitRejectsTrailingData: a POST /jobs body is one JSON value,
// and bytes after it are an error, not ignored.
func TestSubmitRejectsTrailingData(t *testing.T) {
	s := unstarted(t, Options{})
	h := s.Handler()
	for _, body := range []string{
		`{"kind":"lift","unit":"ALU"}{"x":1}`,
		`{"kind":"lift","unit":"ALU"}}`,
		`{"kind":"lift","unit":"ALU"} 7`,
	} {
		if w := post(h, body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: answered %d, want 400: %s", body, w.Code, w.Body)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d submissions with trailing data were queued", n)
	}
	if w := post(h, "{\"kind\":\"lift\",\"unit\":\"ALU\"}\n\t "); w.Code != http.StatusAccepted {
		t.Errorf("trailing white space answered %d, want 202: %s", w.Code, w.Body)
	}
}

// TestMetricsNetlistCounts: /metrics reports how sweeps named their
// netlist. A cold sweep is one unknown hash and one inline resend; a
// warm one is one by-hash submission. Both found the worker idle, so
// both started directly, and no record write failed.
func TestMetricsNetlistCounts(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	for range 2 {
		j, err := c.Submit(ctx, sweepSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, c, j.ID)
	}
	resp, err := c.http().Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"netlists":{"by_hash":1,"unknown":1,"inline":1,"held":1}`,
		`"starts":{"direct":2,"queued":0},"record_write_errors":0`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics = %s, want it to hold %s", body, want)
		}
	}
}

// TestClientRemembersHash: a source the client has sent is hashed once.
// Looking its hash up again allocates nothing, where netlistSHA
// allocates its result, so no SHA-256 ran. The client remembers the last
// clientHashes distinct sources, each under its true hash.
func TestClientRemembersHash(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	spec := sweepSpec()
	j, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, j.ID)
	if allocs := testing.AllocsPerRun(100, func() { c.sourceSHA(spec.Verilog) }); allocs != 0 {
		t.Errorf("looking up the hash of a sent source allocated %v times per run, want 0", allocs)
	}
	srcs := make([]string, clientHashes+8)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("module m%d(); endmodule\n", i)
		c.sourceSHA(srcs[i])
	}
	if n := c.hashes.Stats().Len; n != clientHashes {
		t.Errorf("after %d distinct sources the client holds %d hashes, want %d", len(srcs), n, clientHashes)
	}
	for _, src := range append(srcs, spec.Verilog) {
		if got, want := c.sourceSHA(src), netlistSHA(src); got != want {
			t.Errorf("source %.20q hashed to %s, want %s", src, got, want)
		}
	}
}

// BenchmarkClientSourceHash is the hash a by-hash Submit starts with, on
// a source of fleet-mixed's size: one the client remembers, and one it
// does not (clientHashes+1 sources taken in turn always miss).
func BenchmarkClientSourceHash(b *testing.B) {
	body := strings.Repeat("  NAND2 g (.A(a), .B(b), .Y(y));\n", 311_646/34)
	srcs := make([]string, clientHashes+1)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("// %d\n%s", i, body)
	}
	b.Run("remembered", func(b *testing.B) {
		var c Client
		c.sourceSHA(srcs[0])
		b.SetBytes(int64(len(srcs[0])))
		for i := 0; i < b.N; i++ {
			c.sourceSHA(srcs[0])
		}
	})
	b.Run("not", func(b *testing.B) {
		var c Client
		b.SetBytes(int64(len(srcs[0])))
		for i := 0; i < b.N; i++ {
			c.sourceSHA(srcs[i%len(srcs)])
		}
	})
}

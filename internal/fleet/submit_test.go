package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// outOfRange lists submissions whose numbers no worker can honour; each
// was accepted with 202 before validate checked ranges. The comment is
// what the daemon then did with it.
func outOfRange() map[string]string {
	v := fmt.Sprintf("%q", tinyVerilog(1))
	return map[string]string{
		"sp_cycles":        `{"kind":"sweep","verilog":` + v + `,"sp_cycles":-5}`,                              // worker panic: index out of range in STA
		"checkpoint_every": `{"kind":"campaign","unit":"ALU","per_class":1,"checkpoint_every":-1}`,             // worker panic: slice bounds out of range
		"years":            `{"kind":"sweep","verilog":` + v + `,"years":-3}`,                                  // done
		"years_grid":       `{"kind":"sweep","verilog":` + v + `,"years_grid":[-1]}`,                           // done: aging for a negative lifetime, cached
		"margin":           `{"kind":"sweep","verilog":` + v + `,"margin":-1}`,                                 // done: a negative clock period
		"per_class":        `{"kind":"campaign","unit":"ALU","per_class":-1}`,                                  // failed, late: empty injection universe
		"max_cycles":       `{"kind":"campaign","unit":"ALU","per_class":1,"max_cycles":18446744073709551615}`, // done: every injection may run 2^64-1 cycles
	}
}

// unstarted is a daemon that accepts and persists submissions but never
// runs them: Start is not called.
func unstarted(t testing.TB, opts Options) *Server {
	t.Helper()
	opts.Dir = t.TempDir()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	return s
}

// TestSubmitRejectsOutOfRange: every such body is the client's error at
// submit — 400, nothing queued, nothing persisted.
func TestSubmitRejectsOutOfRange(t *testing.T) {
	s := unstarted(t, Options{})
	h := s.Handler()
	for name, body := range outOfRange() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/jobs", strings.NewReader(body)))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: POST /jobs answered %d, want 400: %s", name, w.Code, w.Body)
		}
		if !strings.Contains(w.Body.String(), name) {
			t.Errorf("%s: the error does not name the field: %s", name, w.Body)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("%d rejected submissions were queued", n)
	}
}

// submitKeyIgnored posts each body, which carries submit_key, a field
// the daemon no longer reads and decodes like any other unknown field.
// Each POST is a job of its own, and no record carries the key.
func submitKeyIgnored(t *testing.T, bodies ...string) {
	s := unstarted(t, Options{})
	h := s.Handler()
	for _, body := range bodies {
		if w := post(h, body); w.Code != http.StatusAccepted {
			t.Fatalf("%s answered %d, want 202: %s", body, w.Code, w.Body)
		}
	}
	jobs := s.Jobs()
	if len(jobs) != len(bodies) {
		t.Fatalf("%d POSTs under one submit_key left %d jobs, want %d", len(bodies), len(jobs), len(bodies))
	}
	for _, j := range jobs {
		if f := lastFrame(t, s.opts.Dir, j.ID); bytes.Contains(f, []byte("submit_key")) {
			t.Errorf("job %s's record carries the key: %s", j.ID, f)
		}
	}
}

// TestRetryDistinctSubmitsStayDistinct: two identical submissions under
// one submit_key are two jobs.
func TestRetryDistinctSubmitsStayDistinct(t *testing.T) {
	alu := `{"kind":"lift","unit":"ALU","submit_key":"k1"}`
	submitKeyIgnored(t, alu, alu)
}

// TestSubmitKeyRejectsDifferentWork: different work under one
// submit_key is no longer refused; each submission is its own job.
func TestSubmitKeyRejectsDifferentWork(t *testing.T) {
	submitKeyIgnored(t, `{"kind":"lift","unit":"ALU","submit_key":"k1"}`, `{"kind":"lift","unit":"FPU","submit_key":"k1"}`)
}

// countingReader counts the bytes a handler pulled from a request body.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// FuzzSubmitSpec feeds arbitrary bytes to POST /jobs: the handler never
// panics, answers with one of the five statuses the API documents, reads
// no more of the body than MaxBodyBytes allows, and whatever it accepts
// is a spec validate passes.
func FuzzSubmitSpec(f *testing.F) {
	for _, body := range outOfRange() {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"kind":"lift","unit":"FPU","years":3.3,"mitigation":true}`))
	f.Add([]byte(`{"kind":"campaign","unit":"ALU","seed":7,"per_class":2,"checkpoint_every":4,"submit_key":"k"}`))
	f.Add([]byte(`{"kind":"sweep","verilog":"module m; endmodule","margin":1.1,"years_grid":[0,1e1]}`))
	f.Add([]byte(`{"kind":"sweep","verilog":"x","years_grid":[1e999]}`))
	f.Add([]byte(`{"kind":"campaign","unit":"FPU","per_class":3,"max_cycles":50000001}`))
	f.Add([]byte(`[`))
	f.Add([]byte(`{"kind":"sweep","netlist_sha256":"` + strings.Repeat("0", 64) + `"}`))
	f.Add([]byte(`{"kind":"lift","unit":"ALU"}{"kind":"lift","unit":"FPU"}`))

	const bodyCap = 64 << 10
	s := unstarted(f, Options{MaxBodyBytes: bodyCap})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		in := &countingReader{r: bytes.NewReader(body)}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/jobs", in))
		switch w.Code {
		case http.StatusAccepted:
			jobs := s.Jobs()
			if err := jobs[len(jobs)-1].Spec.validate(); err != nil {
				t.Errorf("accepted a spec validate rejects: %v", err)
			}
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Errorf("POST /jobs answered %d: %s", w.Code, w.Body)
		}
		// MaxBytesReader reads one byte past the cap to tell "at" from "over".
		if in.n > bodyCap+1 {
			t.Errorf("handler read %d bytes of a body capped at %d", in.n, bodyCap)
		}
	})
}

// FuzzParseWait: a ?wait= value is an error or a duration the daemon is
// willing to park for.
func FuzzParseWait(f *testing.F) {
	for _, q := range []string{"", "0", "20s", "1000h", "-1s", "abc", "5", "1e3", "9223372036854775807ns", "1h1m1s1ms1us1ns"} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		d, err := parseWait(q)
		if err == nil && (d < 0 || d > maxWait) {
			t.Errorf("parseWait(%q) = %s, outside [0, %s]", q, d, maxWait)
		}
		if err != nil && d != 0 {
			t.Errorf("parseWait(%q) failed with a non-zero wait %s", q, d)
		}
	})
}

package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// flakyHandler fails the first n requests matching the filter with the
// given status (plus optional Retry-After), then passes everything
// through to the inner handler.
type flakyHandler struct {
	inner      http.Handler
	mu         sync.Mutex
	remaining  int
	status     int
	retryAfter string
	filter     func(*http.Request) bool
	failed     int
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	fail := f.remaining > 0 && (f.filter == nil || f.filter(r))
	if fail {
		f.remaining--
		f.failed++
	}
	f.mu.Unlock()
	if fail {
		if f.retryAfter != "" {
			w.Header().Set("Retry-After", f.retryAfter)
		}
		http.Error(w, fmt.Sprintf(`{"error":"injected %d"}`, f.status), f.status)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// testPolicy is a fast deterministic retry policy for tests.
func testPolicy() *RetryPolicy {
	return &RetryPolicy{Max: 4, Base: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 42}
}

// TestRetryTransient5xx: a daemon that answers 503 (overload) to the
// first two submissions must end up with exactly one accepted job once
// the client retries through the hiccup.
func TestRetryTransient5xx(t *testing.T) {
	s, err := New(Options{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() { _ = s.Shutdown(context.Background()) }()

	fh := &flakyHandler{inner: s.Handler(), remaining: 2, status: http.StatusServiceUnavailable,
		retryAfter: "0", filter: func(r *http.Request) bool { return r.Method == http.MethodPost }}
	h := httptest.NewServer(fh)
	defer h.Close()

	c := &Client{Base: h.URL, HTTP: h.Client(), Retry: testPolicy()}
	j, err := c.Submit(context.Background(), Spec{Kind: KindSweep, Verilog: tinyVerilog(1)})
	if err != nil {
		t.Fatalf("submit through transient 503s: %v", err)
	}
	fh.mu.Lock()
	failed := fh.failed
	fh.mu.Unlock()
	if failed != 2 {
		t.Fatalf("middleware failed %d requests, want 2", failed)
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 1 {
		t.Fatalf("server holds %d jobs after retried submit, want 1", n)
	}
	waitDone(t, c, j.ID)
}

// loseFirstAccepted serves s over HTTP, but the response to the first
// POST the daemon accepts dies on the wire (the client sees 502) after
// the daemon has processed it. It reports whether that POST carried the
// source inline.
func loseFirstAccepted(t *testing.T, s *Server) (h *httptest.Server, lostInline func() bool) {
	inner := s.Handler()
	var mu sync.Mutex
	lost, inline := false, false
	h = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		mu.Lock()
		dropThis := r.Method == http.MethodPost && rec.Code == http.StatusAccepted && !lost
		if dropThis {
			lost, inline = true, bytes.Contains(body, []byte(`"verilog"`))
		}
		mu.Unlock()
		if dropThis {
			http.Error(w, `{"error":"bad gateway (injected)"}`, http.StatusBadGateway)
			return
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(h.Close)
	return h, func() bool {
		mu.Lock()
		defer mu.Unlock()
		if !lost {
			t.Fatal("no accepted POST was dropped")
		}
		return inline
	}
}

// lostResponseDedups submits a sweep through loseFirstAccepted. The
// retry resends the same content-addressed SubmitKey and must land on
// the already-accepted job — one job total, same ID, not two runs of
// the same work.
func lostResponseDedups(t *testing.T, s *Server, wantInline bool) {
	t.Helper()
	h, lostInline := loseFirstAccepted(t, s)
	c := &Client{Base: h.URL, HTTP: h.Client(), Retry: testPolicy()}
	j, err := c.Submit(context.Background(), Spec{Kind: KindSweep, Verilog: tinyVerilog(1)})
	if err != nil {
		t.Fatalf("submit through lost response: %v", err)
	}
	if got := lostInline(); got != wantInline {
		t.Fatalf("the lost submission carried the source inline: %v, want %v", got, wantInline)
	}
	s.mu.Lock()
	n := len(s.jobs)
	_, present := s.jobs[j.ID]
	s.mu.Unlock()
	if n != 1 {
		t.Fatalf("lost-response retry created %d jobs, want 1 (dedup by SubmitKey)", n)
	}
	if !present {
		t.Fatalf("returned job %s is not the server's accepted job", j.ID)
	}
	waitDone(t, c, j.ID)
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

// TestRetryLostResponse is the double-submit hazard: the server accepts
// the job but the 202 is lost in flight. The daemon already holds the
// netlist, so the by-hash POST is the one accepted and lost.
func TestRetryLostResponse(t *testing.T) {
	s := newStarted(t)
	src := tinyVerilog(1)
	if _, err := s.netlists.put(netlistSHA(src), src); err != nil {
		t.Fatal(err)
	}
	lostResponseDedups(t, s, false)
}

// TestRetryLostResponseInline is the same hazard on the inline
// fallback: the daemon answers the by-hash POST with 409, accepts the
// inline resend, and its 202 is lost. The retry of the inline form
// carries the key the by-hash attempt did.
func TestRetryLostResponseInline(t *testing.T) {
	lostResponseDedups(t, newStarted(t), true)
}

// TestRetryDistinctSubmitsStayDistinct: retry stamping must not collapse
// two intentional submissions of identical work — each Submit call gets
// its own nonce, so the daemon still sees two jobs (and the store, not
// the dedup map, is what coalesces the duplicated computation).
func TestRetryDistinctSubmitsStayDistinct(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 1})
	c.Retry = testPolicy()
	spec := Spec{Kind: KindSweep, Verilog: tinyVerilog(1)}
	j1, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID == j2.ID {
		t.Fatalf("two logical submissions collapsed onto job %s", j1.ID)
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 2 {
		t.Fatalf("server holds %d jobs, want 2", n)
	}
}

// TestSubmitKeyRejectsDifferentWork: a replayed idempotency key bound to
// different spec content is an error, not a silent dedup — the key
// embeds the content hash and the server verifies it.
func TestSubmitKeyRejectsDifferentWork(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	specA := Spec{Kind: KindSweep, Verilog: tinyVerilog(1), SubmitKey: "k1"}
	if _, err := s.Submit(specA); err != nil {
		t.Fatal(err)
	}
	specB := Spec{Kind: KindSweep, Verilog: tinyVerilog(2), SubmitKey: "k1"}
	if _, err := s.Submit(specB); err == nil {
		t.Fatal("replayed key with different content accepted")
	}
	// Exact replay of the same content dedups onto the original.
	j1, err := s.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID != j2.ID {
		t.Fatalf("same key + same content produced jobs %s and %s", j1.ID, j2.ID)
	}
}

// failingTransport fails the first n round-trips with a transport-level
// error (the connection-refused shape), then delegates.
type failingTransport struct {
	mu        sync.Mutex
	remaining int
	under     http.RoundTripper
}

func (ft *failingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	fail := ft.remaining > 0
	if fail {
		ft.remaining--
	}
	ft.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("dial tcp: connect: connection refused (injected)")
	}
	return ft.under.RoundTrip(r)
}

// TestRetryTransportError: connection-level failures (daemon briefly
// down, connection refused) are retried the same way 5xx responses are.
func TestRetryTransportError(t *testing.T) {
	s, err := New(Options{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() { _ = s.Shutdown(context.Background()) }()
	h := httptest.NewServer(s.Handler())
	defer h.Close()

	ft := &failingTransport{remaining: 3, under: http.DefaultTransport}
	c := &Client{Base: h.URL, HTTP: &http.Client{Transport: ft}, Retry: testPolicy()}
	if _, err := c.Submit(context.Background(), Spec{Kind: KindSweep, Verilog: tinyVerilog(1)}); err != nil {
		t.Fatalf("submit through 3 refused connections: %v", err)
	}

	// With more failures than Max retries the last transport error
	// surfaces.
	ft2 := &failingTransport{remaining: 100, under: http.DefaultTransport}
	c2 := &Client{Base: h.URL, HTTP: &http.Client{Transport: ft2}, Retry: testPolicy()}
	if _, err := c2.Submit(context.Background(), Spec{Kind: KindSweep, Verilog: tinyVerilog(1)}); err == nil {
		t.Fatal("submit succeeded against a permanently refusing transport")
	}
}

// TestRetryAfterHonored: a server-sent Retry-After longer than the
// computed backoff stretches the wait; the client must not hammer a
// server that asked for breathing room.
func TestRetryAfterHonored(t *testing.T) {
	p := testPolicy()
	p.fill()
	// Computed backoff is ≤ MaxDelay (5ms); a 1s Retry-After dominates.
	if d := p.delay(0, time.Second); d != time.Second {
		t.Fatalf("delay(0, 1s) = %v, want 1s", d)
	}
	// Without a Retry-After the jittered backoff stays within
	// [Base/2, Base] for attempt 0 and is capped by MaxDelay later.
	for i := 0; i < 50; i++ {
		if d := p.delay(0, 0); d < p.Base/2 || d > p.Base {
			t.Fatalf("delay(0) = %v outside [%v, %v]", d, p.Base/2, p.Base)
		}
		if d := p.delay(10, 0); d < p.MaxDelay/2 || d > p.MaxDelay {
			t.Fatalf("delay(10) = %v outside [%v, %v]", d, p.MaxDelay/2, p.MaxDelay)
		}
	}

	// Header parsing: seconds form, absent, junk.
	mk := func(v string) *http.Response {
		r := &http.Response{Header: http.Header{}}
		if v != "" {
			r.Header.Set("Retry-After", v)
		}
		return r
	}
	if got := retryAfter(mk("2")); got != 2*time.Second {
		t.Fatalf("retryAfter(2) = %v", got)
	}
	if got := retryAfter(mk("")); got != 0 {
		t.Fatalf("retryAfter(absent) = %v", got)
	}
	if got := retryAfter(mk("soon")); got != 0 {
		t.Fatalf("retryAfter(junk) = %v", got)
	}
	if got := retryAfter(nil); got != 0 {
		t.Fatalf("retryAfter(nil) = %v", got)
	}

	// End-to-end: a 503 carrying Retry-After is waited out, not spun on.
	s, err := New(Options{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() { _ = s.Shutdown(context.Background()) }()
	fh := &flakyHandler{inner: s.Handler(), remaining: 1, status: http.StatusServiceUnavailable, retryAfter: "1"}
	h := httptest.NewServer(fh)
	defer h.Close()
	c := &Client{Base: h.URL, HTTP: h.Client(), Retry: testPolicy()}
	start := time.Now()
	if _, err := c.Submit(context.Background(), Spec{Kind: KindSweep, Verilog: tinyVerilog(1)}); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < time.Second {
		t.Fatalf("client retried after %v, ignoring Retry-After: 1", waited)
	}
}

// TestRetryNeverRetriesClientErrors: 4xx means the submission itself is
// wrong; resending it is pure waste and must not happen.
func TestRetryNeverRetriesClientErrors(t *testing.T) {
	var posts int
	var mu sync.Mutex
	h := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		posts++
		mu.Unlock()
		http.Error(w, `{"error":"no"}`, http.StatusBadRequest)
	}))
	defer h.Close()
	c := &Client{Base: h.URL, HTTP: h.Client(), Retry: testPolicy()}
	if _, err := c.Submit(context.Background(), Spec{Kind: KindSweep, Verilog: "x"}); err == nil {
		t.Fatal("400 submission reported success")
	}
	mu.Lock()
	n := posts
	mu.Unlock()
	if n != 1 {
		t.Fatalf("client sent %d requests for a 400, want 1", n)
	}
}

// TestRetryContextCancel: a cancelled context stops the retry loop
// promptly instead of sleeping out the whole backoff schedule.
func TestRetryContextCancel(t *testing.T) {
	h := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer h.Close()
	c := &Client{Base: h.URL, HTTP: h.Client(),
		Retry: &RetryPolicy{Max: 10, Base: 100 * time.Millisecond, MaxDelay: 10 * time.Second, Seed: 7}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Submit(ctx, Spec{Kind: KindSweep, Verilog: "x"})
	if err == nil {
		t.Fatal("submit succeeded against a dead server")
	}
	if !errors.Is(err, context.DeadlineExceeded) && time.Since(start) > time.Second {
		t.Fatalf("retry loop ran %v past a 50ms context (err %v)", time.Since(start), err)
	}
}

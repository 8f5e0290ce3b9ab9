package fleet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// counted serves h and counts the requests it saw.
type counted struct {
	h  http.Handler
	mu sync.Mutex
	n  int
}

func (c *counted) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.h.ServeHTTP(w, r)
}

// took returns how many requests arrived since the last call.
func (c *counted) took() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = 0
	return n
}

// refusedTransport fails every round trip the way a daemon that is down
// does, and counts them.
type refusedTransport struct{ n int }

func (rt *refusedTransport) RoundTrip(*http.Request) (*http.Response, error) {
	rt.n++
	return nil, errors.New("dial tcp: connect: connection refused (injected)")
}

// overloadedOnce serves s over HTTP, counting requests, and answers
// the first POST 503 with Retry-After, the daemon's answer to a full
// queue.
func overloadedOnce(t *testing.T, s *Server) (*counted, *Client) {
	inner := s.Handler()
	var overloaded atomic.Bool
	overloaded.Store(true)
	srv := &counted{h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && overloaded.CompareAndSwap(true, false) {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, errors.New("fleet: injected overload"))
			return
		}
		inner.ServeHTTP(w, r)
	})}
	h := httptest.NewServer(srv)
	t.Cleanup(h.Close)
	return srv, &Client{Base: h.URL, HTTP: h.Client()}
}

// TestRetryTransient5xx: the client does not retry a 503. The daemon's
// refusal comes back as its error after one POST and leaves no job, and
// the next Submit is accepted.
func TestRetryTransient5xx(t *testing.T) {
	s := newStarted(t)
	srv, c := overloadedOnce(t, s)
	ctx := context.Background()
	spec := Spec{Kind: KindLift, Unit: "ALU"}

	_, err := c.Submit(ctx, spec)
	if err == nil || !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), "injected overload") {
		t.Fatalf("submit to an overloaded daemon returned %v, want its 503 and reason", err)
	}
	if n := srv.took(); n != 1 {
		t.Errorf("a refused submission took %d requests, want 1", n)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("the daemon holds %d jobs after a refused submission, want 0", n)
	}
	j, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("the next submission: %v", err)
	}
	if n := srv.took(); n != 1 || len(s.Jobs()) != 1 {
		t.Errorf("the next submission took %d requests and left %d jobs, want 1 and 1", n, len(s.Jobs()))
	}
	waitDone(t, c, j.ID)
}

// TestRetryNeverRetriesClientErrors: a 400 comes back as the daemon's
// error after one request.
func TestRetryNeverRetriesClientErrors(t *testing.T) {
	s := newStarted(t)
	srv := &counted{h: s.Handler()}
	h := httptest.NewServer(srv)
	t.Cleanup(h.Close)
	c := &Client{Base: h.URL, HTTP: h.Client()}
	if _, err := c.Submit(context.Background(), Spec{Kind: "nosuch"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("an invalid spec returned %v, want the daemon's 400", err)
	}
	if n := srv.took(); n != 1 {
		t.Errorf("an invalid spec took %d requests, want 1", n)
	}
}

// TestRetryTransportError: the client does not retry a refused
// connection; each call costs one round trip and returns the transport's
// error.
func TestRetryTransportError(t *testing.T) {
	rt := &refusedTransport{}
	down := &Client{Base: "http://fleet.invalid", HTTP: &http.Client{Transport: rt}}
	ctx := context.Background()
	if _, err := down.Submit(ctx, Spec{Kind: KindLift, Unit: "ALU"}); err == nil || !strings.Contains(err.Error(), "connection refused") {
		t.Errorf("submit over a refusing transport returned %v, want the transport error", err)
	}
	if _, err := down.Result(ctx, "1"); err == nil {
		t.Error("a result read over a refusing transport succeeded")
	}
	if rt.n != 2 {
		t.Errorf("two calls over a refusing transport made %d round trips, want 2", rt.n)
	}
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

// lostAcceptIsListed: when the daemon accepts a sweep but its 202 is
// lost on the wire, Submit returns the error it saw, and GET /jobs lists
// the one job the daemon runs.
func lostAcceptIsListed(t *testing.T, inline bool) {
	s := newStarted(t)
	src := tinyVerilog(1)
	if !inline {
		if _, err := s.netlists.put(netlistSHA(src), src); err != nil {
			t.Fatal(err)
		}
	}
	h, lostInline := loseFirstAccepted(t, s)
	c := &Client{Base: h.URL, HTTP: h.Client()}
	if _, err := c.Submit(context.Background(), Spec{Kind: KindSweep, Verilog: src}); err == nil || !strings.Contains(err.Error(), "502") {
		t.Fatalf("a lost 202 returned %v, want the 502 the client saw", err)
	}
	if got := lostInline(); got != inline {
		t.Fatalf("the lost submission carried the source inline: %v, want %v", got, inline)
	}
	var listed []Job
	if err := c.getJSON(context.Background(), "/jobs", &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 {
		t.Fatalf("GET /jobs lists %d jobs after a lost 202, want 1", len(listed))
	}
	waitDone(t, c, listed[0].ID)
}

// TestRetryLostResponse: the daemon already holds the netlist, so the
// by-hash POST is the one accepted and lost.
func TestRetryLostResponse(t *testing.T) { lostAcceptIsListed(t, false) }

// TestRetryLostResponseInline: the daemon answers the by-hash POST with
// 409, accepts the inline resend, and its 202 is lost.
func TestRetryLostResponseInline(t *testing.T) { lostAcceptIsListed(t, true) }

package fleet

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// failAfter bounds how long a test waits for an event that must happen
// promptly. It is a failure bound, far below maxWait, not a pacing
// sleep: every wait in this file is on the event itself.
const failAfter = 10 * time.Second

func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(failAfter):
		t.Fatalf("%s did not happen within %s", what, failAfter)
		panic("unreachable")
	}
}

// observed reports when each request reaches the daemon's handler and
// when that handler returns.
type observed struct {
	inner             http.Handler
	arrived, returned chan struct{}
}

func observe(h http.Handler) *observed {
	// Buffers sized past any test's request count, so the handler never
	// blocks on a test that stopped listening.
	return &observed{inner: h, arrived: make(chan struct{}, 64), returned: make(chan struct{}, 64)}
}

func (o *observed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.arrived <- struct{}{}
	o.inner.ServeHTTP(w, r)
	o.returned <- struct{}{}
}

// idleServer is a daemon whose workers are not running yet, so a
// submitted job stays queued until the test starts them or cancels it.
func idleServer(t *testing.T) (*Server, *observed, *httptest.Server) {
	t.Helper()
	s, err := New(Options{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := observe(s.Handler())
	h := httptest.NewServer(o)
	t.Cleanup(func() {
		_ = s.Shutdown(context.Background())
		h.Close()
	})
	return s, o, h
}

type waitReply struct {
	code int
	job  Job
	err  error
}

// getWait issues one GET /jobs/{id}?wait=<wait> in the background.
func getWait(ctx context.Context, base, id, wait string) <-chan waitReply {
	out := make(chan waitReply, 1)
	go func() {
		var rep waitReply
		defer func() { out <- rep }()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id+"?wait="+wait, nil)
		if err != nil {
			rep.err = err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			rep.err = err
			return
		}
		defer resp.Body.Close()
		rep.code = resp.StatusCode
		if resp.StatusCode == http.StatusOK {
			rep.err = json.NewDecoder(resp.Body).Decode(&rep.job)
		}
	}()
	return out
}

func sweepSpec() Spec { return Spec{Kind: KindSweep, Verilog: tinyVerilog(1), SPCycles: 32} }

// TestWaitReturnsOnCompletion: a request parked in ?wait= is answered
// when the job finishes, not when the wait runs out, and with the
// terminal record.
func TestWaitReturnsOnCompletion(t *testing.T) {
	s, o, h := idleServer(t)
	j, err := s.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	reply := getWait(context.Background(), h.URL, j.ID, maxWait.String())
	within(t, o.arrived, "the wait request's arrival")
	s.Start()
	rep := within(t, reply, "the parked request's answer")
	if rep.err != nil || rep.code != http.StatusOK || rep.job.Status != StatusDone {
		t.Fatalf("parked wait answered %d %q (err %v), want 200 done", rep.code, rep.job.Status, rep.err)
	}
	if rep.job.Spec.Verilog != "" || rep.job.Result != nil {
		t.Error("wait answer carries the netlist source or the result payload")
	}
}

// TestWaitTimeoutAndValidation: a wait that runs out answers 200 with
// the record still non-terminal; a malformed or negative wait is the
// client's error; the server caps what it is asked for.
func TestWaitTimeoutAndValidation(t *testing.T) {
	s, _, h := idleServer(t)
	j, err := s.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, wait := range []string{"1ms", "0s", "0"} {
		rep := within(t, getWait(ctx, h.URL, j.ID, wait), "a timed-out wait's answer")
		if rep.err != nil || rep.code != http.StatusOK || rep.job.Status != StatusQueued {
			t.Errorf("wait=%s answered %d %q (err %v), want 200 queued", wait, rep.code, rep.job.Status, rep.err)
		}
	}
	for _, wait := range []string{"abc", "-1s", "5", "1e3"} {
		if rep := within(t, getWait(ctx, h.URL, j.ID, wait), "a rejected wait's answer"); rep.code != http.StatusBadRequest {
			t.Errorf("wait=%s answered %d, want 400", wait, rep.code)
		}
	}
	if rep := within(t, getWait(ctx, h.URL, "j999999", "1ms"), "an unknown job's answer"); rep.code != http.StatusNotFound {
		t.Errorf("wait on an unknown job answered %d, want 404", rep.code)
	}
	if d, err := parseWait("1000h"); err != nil || d != maxWait {
		t.Errorf("parseWait(1000h) = %s, %v; want the cap %s", d, err, maxWait)
	}
}

// TestClientWaitAgainstIgnoringServer: Client.Wait still terminates,
// through its backoff loop, against a server that answers at once and
// never parks (an older daemon, or one that is draining).
func TestClientWaitAgainstIgnoringServer(t *testing.T) {
	var gets atomic.Int64
	h := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("wait") == "" {
			t.Error("Client.Wait did not ask the server to park")
		}
		j := Job{ID: "j000001", Status: StatusRunning}
		if gets.Add(1) > 3 {
			j.Status = StatusDone
		}
		writeJSON(w, http.StatusOK, &j)
	}))
	defer h.Close()
	c := &Client{Base: h.URL, HTTP: h.Client()}
	j, err := c.Wait(context.Background(), "j000001")
	if err != nil || j.Status != StatusDone {
		t.Fatalf("Wait = %+v, %v; want done", j, err)
	}
	if n := gets.Load(); n != 4 {
		t.Errorf("Wait made %d requests, want 4", n)
	}
}

// TestCancelWakesWaiters: cancelling a queued job answers the clients
// parked on it.
func TestCancelWakesWaiters(t *testing.T) {
	s, o, h := idleServer(t)
	j, err := s.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: h.URL, HTTP: h.Client()}
	type waited struct {
		j   *Job
		err error
	}
	done := make(chan waited, 1)
	go func() {
		j, err := c.Wait(context.Background(), j.ID)
		done <- waited{j, err}
	}()
	within(t, o.arrived, "the waiter's arrival")
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if w := within(t, done, "the cancelled job's waiter returning"); w.err != nil || w.j.Status != StatusCancelled {
		t.Fatalf("Wait = %+v, %v; want cancelled", w.j, w.err)
	}
}

// TestWaitClientDisconnect: a client that gives up frees its handler
// goroutine instead of leaving it parked until the wait runs out.
func TestWaitClientDisconnect(t *testing.T) {
	s, o, h := idleServer(t)
	j, err := s.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	reply := getWait(ctx, h.URL, j.ID, maxWait.String())
	within(t, o.arrived, "the wait request's arrival")
	cancel()
	if rep := within(t, reply, "the client's own return"); rep.err == nil {
		t.Fatalf("cancelled request answered %d", rep.code)
	}
	within(t, o.returned, "the abandoned handler's return")
}

// TestDrainReleasesWaiters: a drain answers parked clients at once with
// the non-terminal record instead of sitting out their waits — both
// when the embedder calls Server.Shutdown and when, like vega-fleetd,
// it shuts its http.Server down first with ReleaseWaiters registered.
func TestDrainReleasesWaiters(t *testing.T) {
	const waiters = 8
	park := func(t *testing.T, s *Server, o *observed, base string) []<-chan waitReply {
		j, err := s.Submit(sweepSpec())
		if err != nil {
			t.Fatal(err)
		}
		replies := make([]<-chan waitReply, waiters)
		for i := range replies {
			replies[i] = getWait(context.Background(), base, j.ID, maxWait.String())
			within(t, o.arrived, "a waiter's arrival")
		}
		return replies
	}
	released := func(t *testing.T, replies []<-chan waitReply) {
		for _, r := range replies {
			if rep := within(t, r, "a parked waiter's release"); rep.err != nil || rep.code != http.StatusOK || rep.job.Status != StatusQueued {
				t.Errorf("released waiter got %d %q (err %v), want 200 queued", rep.code, rep.job.Status, rep.err)
			}
		}
	}

	t.Run("Server.Shutdown", func(t *testing.T) {
		s, o, h := idleServer(t)
		replies := park(t, s, o, h.URL)
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		released(t, replies)
	})

	t.Run("http.Server.Shutdown", func(t *testing.T) {
		s, err := New(Options{Dir: t.TempDir(), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = s.Shutdown(context.Background()) }()
		o := observe(s.Handler())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: o}
		hs.RegisterOnShutdown(s.ReleaseWaiters)
		served := make(chan error, 1)
		go func() { served <- hs.Serve(ln) }()
		replies := park(t, s, o, "http://"+ln.Addr().String())

		// Shutdown waits for active connections: it returns inside the
		// bound only if the parked requests were released.
		ctx, cancel := context.WithTimeout(context.Background(), failAfter)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			t.Fatalf("http shutdown with parked waiters: %v", err)
		}
		<-served
		released(t, replies)
	})
}

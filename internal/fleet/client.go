package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/store"
)

// Client talks to a fleetd instance. The zero HTTP field uses a
// transport sized for load-test fan-out (many concurrent keep-alive
// connections to one host), which is also fine for a single caller.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the underlying client (optional).
	HTTP *http.Client
	// Retry, when non-nil, makes every request retry transient failures
	// (transport errors, 5xx) with exponential backoff and jitter. A
	// retried Submit is safe: the first attempt stamps the spec with a
	// content-addressed SubmitKey, so a resend after a lost response
	// dedups onto the already-accepted job instead of running the work
	// twice. Nil keeps the historical fail-fast behaviour.
	Retry *RetryPolicy
}

// RetryPolicy tunes the client's transient-failure handling.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt (default 4).
	Max int
	// Base is the first backoff delay (default 50ms); attempt n waits
	// Base<<n plus up to 50% jitter, capped at MaxDelay.
	Base time.Duration
	// MaxDelay caps one backoff sleep (default 2s). A server-sent
	// Retry-After below the cap overrides the computed delay.
	MaxDelay time.Duration
	// Seed makes the jitter (and SubmitKey nonces) deterministic for
	// tests; 0 seeds from the wall clock.
	Seed int64

	once sync.Once
	mu   sync.Mutex
	rng  *rand.Rand
}

func (p *RetryPolicy) fill() {
	p.once.Do(func() {
		if p.Max == 0 {
			p.Max = 4
		}
		if p.Base == 0 {
			p.Base = 50 * time.Millisecond
		}
		if p.MaxDelay == 0 {
			p.MaxDelay = 2 * time.Second
		}
		seed := p.Seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		p.rng = rand.New(rand.NewSource(seed))
	})
}

// delay computes the backoff before retry attempt (0-based), honoring
// a server-sent Retry-After when it is longer.
func (p *RetryPolicy) delay(attempt int, retryAfter time.Duration) time.Duration {
	d := p.Base << attempt
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Full jitter on the top half: d/2 + U[0, d/2). A thousand clients
	// retrying the same hiccup must not resynchronize into waves.
	p.mu.Lock()
	d = d/2 + time.Duration(p.rng.Int63n(int64(d/2)+1))
	p.mu.Unlock()
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// nonce returns a random submission nonce (serialized under the same
// lock as the jitter so concurrent Submits stay race-free).
func (p *RetryPolicy) nonce() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Uint64()
}

// retryAfter parses a Retry-After header (seconds form) from a
// response, 0 when absent or unparsable.
func retryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// retryable reports whether a response status is worth retrying:
// overload and transient server faults, never client errors.
func retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// doRetry issues the request built by mk, retrying per c.Retry. mk is
// called per attempt (request bodies are single-use). The caller owns
// the returned response body.
func (c *Client) doRetry(ctx context.Context, mk func() (*http.Request, error)) (*http.Response, error) {
	if c.Retry == nil {
		req, err := mk()
		if err != nil {
			return nil, err
		}
		return c.http().Do(req)
	}
	c.Retry.fill()
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := mk()
		if err != nil {
			return nil, err
		}
		resp, err := c.http().Do(req)
		var ra time.Duration
		switch {
		case err == nil && !retryable(resp.StatusCode):
			return resp, nil
		case err == nil:
			ra = retryAfter(resp)
			lastErr = errorBody(resp) // drains and closes the body
		default:
			lastErr = err
		}
		if attempt >= c.Retry.Max || ctx.Err() != nil {
			return nil, lastErr
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(c.Retry.delay(attempt, ra)):
		}
	}
}

// defaultHTTP is shared by all zero-field Clients so the load-test's
// thousands of goroutines pool connections instead of exhausting
// ephemeral ports.
var defaultHTTP = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 512,
	},
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTP
}

// errorBody decodes the daemon's {"error": ...} payload.
func errorBody(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(resp.Body)
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("fleet: %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("fleet: %s", resp.Status)
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errorBody(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a job spec and returns the accepted record. With a
// retry policy, the spec is stamped once with a content-addressed
// idempotency key (hash of the spec plus a per-call nonce), so every
// resend of this logical submission maps onto one server-side job even
// when a response was lost in flight. Distinct Submit calls get
// distinct nonces and stay distinct jobs.
func (c *Client) Submit(ctx context.Context, spec Spec) (*Job, error) {
	if c.Retry != nil && spec.SubmitKey == "" {
		c.Retry.fill()
		content, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		spec.SubmitKey = fmt.Sprintf("%.16s-%016x", store.HashBytes(content), c.Retry.nonce())
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := c.doRetry(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, errorBody(resp)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Job fetches one job record (without its result payload).
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var j Job
	if err := c.getJSON(ctx, "/jobs/"+id, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// waitSlice is how long Wait asks the daemon to park one request; the
// daemon caps it (maxWait), and a job that outlives it is asked again.
const waitSlice = 20 * time.Second

// Wait blocks until the job leaves the queued/running states. Each
// request asks the daemon to park it until then (?wait=), so a waiter
// costs one request and hears the moment the job finishes. A
// non-terminal answer means the wait ran out, the daemon is draining or
// the server ignores the parameter; the loop then backs off, so
// thousands of waiters cannot hammer a daemon that answers at once.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	delay := 2 * time.Millisecond
	const maxDelay = 250 * time.Millisecond
	for {
		var j Job
		if err := c.getJSON(ctx, "/jobs/"+id+"?wait="+waitSlice.String(), &j); err != nil {
			return nil, err
		}
		if j.terminal() {
			return &j, nil
		}
		select {
		case <-ctx.Done():
			return &j, ctx.Err()
		case <-time.After(delay):
		}
		if delay < maxDelay {
			delay *= 2
		}
	}
}

// Result fetches a finished job's raw result payload.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/jobs/"+id+"/result", nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errorBody(resp)
	}
	return io.ReadAll(resp.Body)
}

// Cancel requests cancellation and returns the (possibly already
// updated) record. Cancellation is idempotent server-side, so it is
// safe to retry.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	resp, err := c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodDelete, c.Base+"/jobs/"+id, nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errorBody(resp)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Metrics fetches the daemon's store counters and job census.
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	var m Metrics
	if err := c.getJSON(ctx, "/metrics", &m); err != nil {
		return nil, err
	}
	return &m, nil
}

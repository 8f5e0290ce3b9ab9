package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/lru"
)

// Client talks to a fleetd instance. The zero HTTP field uses a
// transport sized for load-test fan-out (many concurrent keep-alive
// connections to one host), which is also fine for a single caller.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the underlying client (optional).
	HTTP *http.Client

	hashOnce sync.Once
	hashes   *lru.Cache[string, string] // source -> netlistSHA(source)
}

// clientHashes is how many distinct sources a Client remembers the
// SHA-256 of: a fleet screens a few designs over and over, and the
// cache keeps alive only sources the caller already held.
const clientHashes = 32

// sourceSHA is netlistSHA(src), computed once per source the client
// remembers: a warm by-hash submit then skips hashing 300 kB of Verilog.
// The cache is keyed by the content itself, so a lookup costs one string
// hash and one comparison, and a different source can never get a stale
// hash.
func (c *Client) sourceSHA(src string) string {
	c.hashOnce.Do(func() { c.hashes = lru.New[string, string](clientHashes) })
	if h, ok := c.hashes.Get(src); ok {
		return h
	}
	h := netlistSHA(src)
	c.hashes.Add(src, h)
	return h
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

// get issues one GET, and fails fast: the error is the transport's or,
// for any status but 200, the daemon's. The caller closes the body.
func (c *Client) get(ctx context.Context, path string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, errorBody(resp)
	}
	return resp.Body, nil
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	body, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	defer body.Close()
	return json.NewDecoder(body).Decode(out)
}

// Submit posts a job spec and returns the accepted record. A sweep names
// its Verilog by SHA-256, hashed once per source the client remembers,
// and sends the source only when the daemon answers 409. Submit fails
// fast: it sends no request twice, and any other answer but 202 comes
// back as the daemon's error (a 503 for a full queue or a drain among
// them), so whether to submit again is the caller's choice. Each Submit
// that the daemon accepts is a job of its own, and one whose 202 was
// lost is still listed by GET /jobs.
func (c *Client) Submit(ctx context.Context, spec Spec) (*Job, error) {
	src := ""
	if spec.Kind == KindSweep && spec.NetlistSHA == "" && spec.Verilog != "" {
		src, spec.Verilog, spec.NetlistSHA = spec.Verilog, "", c.sourceSHA(spec.Verilog)
	}
	for {
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.http().Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusConflict && src != "" {
			_, _ = io.Copy(io.Discard, resp.Body) // lets the connection carry the resend
			spec.Verilog, spec.NetlistSHA, src = src, "", ""
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return nil, errorBody(resp)
		}
		var j Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			return nil, err
		}
		return &j, nil
	}
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
	body, err := c.get(ctx, "/jobs/"+id+"/result")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return io.ReadAll(body)
}

// Metrics fetches the daemon's store counters and job census.
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	var m Metrics
	if err := c.getJSON(ctx, "/metrics", &m); err != nil {
		return nil, err
	}
	return &m, nil
}

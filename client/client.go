// Package client is the Go client for pubtacd, the pubtac analysis daemon
// (cmd/pubtacd, internal/serve). It speaks the daemon's small JSON-over-HTTP
// protocol: job submission, Server-Sent-Event progress streams, and direct
// result-store probes by content key.
//
// The daemon's responses are pubtac.BatchResult documents stamped with
// pubtac.ResultSchemaVersion; the client rejects documents from a build
// speaking a different schema. Cache keys are pubtac.Fingerprints — a client
// holding the program and configuration can derive the key itself
// (pubtac.AnalysisKey) and probe GET /v1/results/{key} without ever sending
// a request body.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pubtac"
)

// AnalyzeRequest is the body of POST /v1/analyze. Exactly one of the two
// forms must be used: the single-benchmark form (Bench, optionally Input or
// Multipath) or the batch form (Jobs).
type AnalyzeRequest struct {
	// Bench names one benchmark (single form).
	Bench string `json:"bench,omitempty"`
	// Input selects a named input vector of Bench; empty means the
	// benchmark's default input.
	Input string `json:"input,omitempty"`
	// Multipath analyzes every input vector of Bench (Corollary 2).
	Multipath bool `json:"multipath,omitempty"`

	// Jobs is the batch form: several benchmarks in one request (and one
	// cache entry).
	Jobs []JobSpec `json:"jobs,omitempty"`

	// Wait makes POST /v1/analyze respond with the result body itself
	// (computing it if needed) instead of a SubmitResponse.
	Wait bool `json:"wait,omitempty"`
}

// JobSpec names one benchmark and its input vectors within a batch request.
type JobSpec struct {
	Bench string `json:"bench"`
	// Inputs are input vector names; empty means the default input.
	Inputs []string `json:"inputs,omitempty"`
	// Multipath overrides Inputs with every input vector of the benchmark.
	Multipath bool `json:"multipath,omitempty"`
}

// SubmitResponse is the daemon's answer to a non-waiting submission.
type SubmitResponse struct {
	// JobID identifies the running analysis; empty when Cached (there is
	// nothing to follow — fetch the result by Key).
	JobID string `json:"job_id,omitempty"`
	// Key is the content address of the (eventual) result.
	Key string `json:"key"`
	// Cached reports that the result was already in the store.
	Cached bool `json:"cached"`
	// Deduped reports that an identical submission was already in flight
	// and this one joined it instead of computing again.
	Deduped bool `json:"deduped,omitempty"`
	// SchemaVersion is the server's pubtac.ResultSchemaVersion.
	SchemaVersion int `json:"schema_version"`
}

// JobStatus is the daemon's answer to GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	State  string `json:"state"` // "running", "done" or "error"
	Error  string `json:"error,omitempty"`
	Events int    `json:"events"` // progress events emitted so far
}

// Header names the daemon stamps on result responses.
const (
	// HeaderCache is "hit" when the body was served from the result store
	// and "miss" when this request computed it.
	HeaderCache = "X-Pubtac-Cache"
	// HeaderTier is "mem" or "disk": the store tier a hit was served from.
	HeaderTier = "X-Pubtac-Store-Tier"
	// HeaderKey is the result's content address (hex fingerprint).
	HeaderKey = "X-Pubtac-Key"
)

// Client talks to one pubtacd instance. The zero value is not usable;
// construct with New.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8753".
	BaseURL string
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
}

// Option configures a Client; see New.
type Option func(*Client)

// WithTransport replaces the underlying transport (keeping the default
// client around it) — the hook the fault injector's RoundTripper plugs into.
func WithTransport(rt http.RoundTripper) Option {
	return func(c *Client) { c.HTTP.Transport = rt }
}

// New returns a client for the daemon at baseURL. Unlike the zero
// http.Client, the default client bounds connection setup (10s dial, 10s TLS
// handshake) so a black-holed peer fails the dial instead of hanging a
// campaign forever; response duration stays unbounded for the streaming
// endpoints — bound it per call via ctx, or through the peer fabric's
// per-attempt timeouts.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{BaseURL: strings.TrimRight(baseURL, "/"), HTTP: defaultHTTPClient()}
	for _, o := range opts {
		o(c)
	}
	return c
}

// defaultHTTPClient builds New's sane-default client: bounded connection
// setup, pooled keep-alive connections sized for hedged shard fan-out.
func defaultHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout: 10 * time.Second,
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Analyze submits the request, waits for the result, and decodes it. cached
// reports whether the daemon served it from its result store; the decoded
// document's schema version is verified against this build's.
func (c *Client) Analyze(ctx context.Context, req AnalyzeRequest) (res *pubtac.BatchResult, cached bool, err error) {
	body, cached, err := c.AnalyzeRaw(ctx, req)
	if err != nil {
		return nil, false, err
	}
	res, err = decodeBatch(body)
	return res, cached, err
}

// AnalyzeRaw is Analyze without decoding: it returns the daemon's exact
// response bytes. Identical submissions yield byte-identical bodies — the
// property the result store guarantees — so AnalyzeRaw is the right call for
// consumers that compare, forward or re-store responses.
func (c *Client) AnalyzeRaw(ctx context.Context, req AnalyzeRequest) (body []byte, cached bool, err error) {
	req.Wait = true
	resp, err := c.post(ctx, "/v1/analyze", req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err = readOK(resp)
	if err != nil {
		return nil, false, err
	}
	return body, resp.Header.Get(HeaderCache) == "hit", nil
}

// Submit enqueues the request without waiting. When the result is already
// stored the response says so (Cached, no JobID); otherwise follow the job
// via Events or JobStatus and fetch the body via Result.
func (c *Client) Submit(ctx context.Context, req AnalyzeRequest) (SubmitResponse, error) {
	req.Wait = false
	var sub SubmitResponse
	resp, err := c.post(ctx, "/v1/analyze", req)
	if err != nil {
		return sub, err
	}
	defer resp.Body.Close()
	body, err := readOK(resp)
	if err != nil {
		return sub, err
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		return sub, fmt.Errorf("client: decoding submit response: %w", err)
	}
	if err := pubtac.CheckSchemaVersion(sub.SchemaVersion); err != nil {
		return sub, fmt.Errorf("client: %w", err)
	}
	return sub, nil
}

// Result fetches the stored body for a content key (hex fingerprint).
// found=false means the store holds no entry for it (yet).
func (c *Client) Result(ctx context.Context, key string) (body []byte, found bool, err error) {
	resp, err := c.get(ctx, "/v1/results/"+key)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, false, nil
	}
	body, err = readOK(resp)
	if err != nil {
		return nil, false, err
	}
	return body, true, nil
}

// JobStatus fetches the state of a submitted job.
func (c *Client) JobStatus(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	resp, err := c.get(ctx, "/v1/jobs/"+id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, err := readOK(resp)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("client: decoding job status: %w", err)
	}
	return st, nil
}

// Events streams the job's progress events (GET /v1/jobs/{id}/events,
// Server-Sent Events), invoking fn for each one — including events emitted
// before the call, which the daemon replays. It returns nil once the job
// completes, the job's error if it failed, or ctx.Err() on cancellation.
func (c *Client) Events(ctx context.Context, id string, fn func(pubtac.ProgressEvent)) error {
	resp, err := c.get(ctx, "/v1/jobs/"+id+"/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}

	var event string
	var data bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		line := sc.Text()
		switch {
		case line == "":
			done, err := dispatchSSE(event, data.Bytes(), fn)
			if done || err != nil {
				return err
			}
			event = ""
			data.Reset()
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("client: event stream: %w", err)
	}
	return fmt.Errorf("client: event stream ended without a terminal event")
}

// dispatchSSE routes one complete SSE frame. done reports a terminal frame.
func dispatchSSE(event string, data []byte, fn func(pubtac.ProgressEvent)) (done bool, err error) {
	switch event {
	case "progress":
		var ev pubtac.ProgressEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return false, fmt.Errorf("client: decoding progress event: %w", err)
		}
		if fn != nil {
			fn(ev)
		}
		return false, nil
	case "done":
		return true, nil
	case "error":
		var msg struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &msg); err != nil || msg.Error == "" {
			return true, fmt.Errorf("client: job failed")
		}
		return true, fmt.Errorf("client: job failed: %s", msg.Error)
	default:
		return false, nil // ignore unknown frames (heartbeats, extensions)
	}
}

// decodeBatch decodes and schema-checks a result body.
func decodeBatch(body []byte) (*pubtac.BatchResult, error) {
	b, err := pubtac.DecodeBatchResult(body)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return b, nil
}

func (c *Client) post(ctx context.Context, path string, body any) (*http.Response, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(buf))
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	return c.http().Do(req)
}

func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return c.http().Do(req)
}

// readOK drains the body of a 200 response, or turns any other status into
// an error carrying the server's message.
func readOK(resp *http.Response) ([]byte, error) {
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: reading response: %w", err)
	}
	return body, nil
}

// StatusError is the typed error for every non-2xx daemon reply; the peer
// fabric's retry classification keys on it. It wraps nothing — the status
// code IS the cause.
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// Method and Path identify the failed call.
	Method, Path string
	// Msg is the server's (truncated) error body.
	Msg string
	// RetryAfter is the parsed Retry-After header (0 when absent): the
	// server's explicit backoff request on 429/503 load-shed replies.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: %s %s: HTTP %d: %s", e.Method, e.Path, e.Code, e.Msg)
}

// Temporary reports whether retrying the same request later (or on another
// peer) can plausibly succeed: load sheds (429), server errors (5xx) and
// timeouts (408) are temporary; everything else 4xx — bad requests, foreign
// config fingerprints, missing resources — is a property of the request
// itself and will fail identically everywhere.
func (e *StatusError) Temporary() bool {
	switch {
	case e.Code == http.StatusTooManyRequests, e.Code == http.StatusRequestTimeout:
		return true
	case e.Code >= 500:
		return true
	}
	return false
}

func statusError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	se := &StatusError{
		Code:   resp.StatusCode,
		Method: resp.Request.Method,
		Path:   resp.Request.URL.Path,
		Msg:    strings.TrimSpace(string(msg)),
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}

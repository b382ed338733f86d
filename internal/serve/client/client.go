// Package client is the typed client for the aivrild job service: it
// speaks the POST/GET/DELETE /jobs surface of internal/serve with
// retry/backoff that honours 429 Retry-After, follows transcript
// streams (NDJSON), and dispatches whole experiment sweeps through
// the queue so heavy traffic exercises the service instead of
// in-process runners.
//
// Because job IDs are content-addressed and the service persists the
// same exp.ProblemOutcome payload into the same cache cells a local
// sweep would, a dispatched sweep is byte-identical to — and merges
// with — an in-process run of the same configuration. The client
// verifies that property per cell: the server-derived job ID must
// equal the locally computed runner.Job key, so config drift between
// client and server surfaces as a loud error, never a silent cache
// split.
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/serve"
)

// Config parameterises a Client. The zero value is usable.
type Config struct {
	// HTTPClient issues the requests (default: a fresh http.Client
	// with no global timeout — event streams are long-lived; per-call
	// deadlines come from the caller's context).
	HTTPClient *http.Client
	// RetryBase is the first backoff delay for retryable responses
	// (429, 503, transport errors); it doubles up to RetryCap. A 429's
	// Retry-After header overrides the computed delay. Defaults:
	// 100ms / 5s.
	RetryBase time.Duration
	RetryCap  time.Duration
	// OnEvent, when set, receives every transcript event observed
	// while awaiting a job — the live-progress feed for sweeps.
	OnEvent func(jobID string, ev serve.Event)
}

// Client talks to one job service.
type Client struct {
	base string
	cfg  Config
}

// New validates the base URL (e.g. "http://127.0.0.1:8080") and
// returns a client.
func New(baseURL string, cfg Config) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q: need http or https", baseURL)
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 5 * time.Second
	}
	return &Client{base: strings.TrimRight(u.String(), "/"), cfg: cfg}, nil
}

// apiError mirrors the service's error body.
type apiError struct {
	Error string `json:"error"`
}

// StatusError reports a non-retryable HTTP failure.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server answered %d: %s", e.Code, e.Msg)
}

// sleep waits d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoff computes the delay before retry attempt (0-based), honouring
// a Retry-After hint when the server sent one.
func (c *Client) backoff(attempt int, retryAfter string) time.Duration {
	if s, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && s >= 0 {
		d := time.Duration(s) * time.Second
		if d > c.cfg.RetryCap {
			d = c.cfg.RetryCap
		}
		if d > 0 {
			return d
		}
	}
	d := c.cfg.RetryBase << uint(attempt)
	if d > c.cfg.RetryCap || d <= 0 {
		d = c.cfg.RetryCap
	}
	return d
}

// doJSON issues one request with retry/backoff and decodes the
// response into out. Retryable: transport errors, 429 (honouring
// Retry-After) and 503 (a draining or restarting server); these retry
// until ctx ends, because for sweep dispatch a full queue is
// backpressure, not failure. Anything else non-2xx fails with a
// StatusError.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = strings.NewReader(string(body))
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.cfg.HTTPClient.Do(req)
		retryAfter := ""
		if err == nil {
			retryAfter = resp.Header.Get("Retry-After")
			switch {
			case resp.StatusCode < 300:
				if out == nil {
					resp.Body.Close()
					return nil
				}
				derr := json.NewDecoder(resp.Body).Decode(out)
				resp.Body.Close()
				return derr
			case resp.StatusCode == http.StatusTooManyRequests,
				resp.StatusCode == http.StatusServiceUnavailable:
				// Backpressure / drain: retry below.
				var ae apiError
				json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&ae)
				resp.Body.Close()
				err = &StatusError{Code: resp.StatusCode, Msg: ae.Error}
			default:
				var ae apiError
				json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&ae)
				resp.Body.Close()
				if ae.Error == "" {
					ae.Error = resp.Status
				}
				return &StatusError{Code: resp.StatusCode, Msg: ae.Error}
			}
		}
		if serr := sleep(ctx, c.backoff(attempt, retryAfter)); serr != nil {
			return fmt.Errorf("client: %s %s: %w (last: %v)", method, path, serr, err)
		}
	}
}

// Submit posts a job spec, retrying through 429 backpressure, and
// returns the accepted record. Submission is idempotent server-side.
func (c *Client) Submit(ctx context.Context, spec serve.Spec) (serve.Record, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.Record{}, err
	}
	var rec serve.Record
	err = c.doJSON(ctx, http.MethodPost, "/jobs", body, &rec)
	return rec, err
}

// Get fetches one job record.
func (c *Client) Get(ctx context.Context, id string) (serve.Record, error) {
	var rec serve.Record
	err := c.doJSON(ctx, http.MethodGet, "/jobs/"+id, nil, &rec)
	return rec, err
}

// Cancel cancels a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (serve.Record, error) {
	var rec serve.Record
	err := c.doJSON(ctx, http.MethodDelete, "/jobs/"+id, nil, &rec)
	return rec, err
}

// Metrics fetches the service metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (serve.MetricsSnapshot, error) {
	var snap serve.MetricsSnapshot
	err := c.doJSON(ctx, http.MethodGet, "/metrics", nil, &snap)
	return snap, err
}

// Health probes /healthz (503 while draining is a failure here — the
// probe asks "can I submit", so it does not retry).
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &StatusError{Code: resp.StatusCode, Msg: "unhealthy"}
	}
	return nil
}

// Events follows a job's transcript as NDJSON, invoking fn per event.
// It returns nil when the stream ends (job terminal, or server drain
// cut it — Await distinguishes by re-fetching the record) and fn's
// error if fn stops the stream.
func (c *Client) Events(ctx context.Context, id string, fn func(serve.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events?format=ndjson", nil)
	if err != nil {
		return err
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var ae apiError
		json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&ae)
		return &StatusError{Code: resp.StatusCode, Msg: ae.Error}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("client: bad event line: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	return sc.Err()
}

// terminal reports whether a status is settled for this server life.
func terminal(status string) bool {
	switch status {
	case serve.StatusCompleted, serve.StatusFailed, serve.StatusCanceled, serve.StatusInterrupted:
		return true
	}
	return false
}

// Await follows the job until it settles: it streams the transcript
// (feeding Config.OnEvent) and re-fetches the record when the stream
// ends; if the stream was cut without the job settling (server drain,
// stalled proxy), it falls back to polling. Interrupted counts as
// settled — the caller decides whether to resubmit (Evaluate does).
func (c *Client) Await(ctx context.Context, id string) (serve.Record, error) {
	for attempt := 0; ; attempt++ {
		rec, err := c.Get(ctx, id)
		if err != nil {
			return rec, err
		}
		if terminal(rec.Status) {
			return rec, nil
		}
		serr := c.Events(ctx, id, func(ev serve.Event) error {
			if c.cfg.OnEvent != nil {
				c.cfg.OnEvent(id, ev)
			}
			return nil
		})
		if serr != nil && ctx.Err() != nil {
			return rec, ctx.Err()
		}
		rec, err = c.Get(ctx, id)
		if err == nil && terminal(rec.Status) {
			return rec, nil
		}
		// Stream ended with the job still live: poll with backoff.
		if err := sleep(ctx, c.backoff(attempt, "")); err != nil {
			return rec, err
		}
	}
}

// Evaluate dispatches one experiment cell through the service and
// blocks until it has an outcome; it matches the exp.Dispatch shape
// modulo the context (close over one). Interrupted jobs (drain,
// transient provider outage) are resubmitted — idempotent, resuming
// from the server-side checkpoint — until the context gives up.
func (c *Client) Evaluate(ctx context.Context, job runner.Job, cell exp.RemoteCell) (exp.ProblemOutcome, error) {
	spec := serve.Spec{
		Problem:        cell.Problem,
		Model:          cell.Model,
		Language:       cell.Language,
		Provider:       cell.Provider,
		MaxSyntaxIters: cell.MaxSyntaxIters,
		MaxFuncIters:   cell.MaxFuncIters,
		MaxSimTime:     cell.MaxSimTime,
		CoGenTestbench: cell.CoGenTestbench,
		SkipFunctional: cell.SkipFunctional,
	}
	wantID := job.Key()
	for {
		rec, err := c.Submit(ctx, spec)
		if err != nil {
			return exp.ProblemOutcome{}, err
		}
		if rec.ID != wantID {
			return exp.ProblemOutcome{}, fmt.Errorf(
				"client: server derived job %s for cell %s, local key is %s — client/server config mismatch (version skew, or a sweep knob the job spec cannot express)",
				rec.ID, job, wantID)
		}
		rec, err = c.Await(ctx, rec.ID)
		if err != nil {
			return exp.ProblemOutcome{}, err
		}
		switch rec.Status {
		case serve.StatusCompleted:
			if rec.Outcome == nil {
				return exp.ProblemOutcome{}, fmt.Errorf("client: job %s completed without an outcome", rec.ID)
			}
			return *rec.Outcome, nil
		case serve.StatusInterrupted:
			// Drain or transient outage: the checkpoint survived;
			// resubmission resumes it. Back off first — the server may
			// be restarting.
			if err := sleep(ctx, c.backoff(0, "")); err != nil {
				return exp.ProblemOutcome{}, err
			}
		default:
			return exp.ProblemOutcome{}, fmt.Errorf("client: cell %s %s: %s", job, rec.Status, rec.Error)
		}
	}
}

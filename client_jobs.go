package tcomp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Async job API client — the remote twin of the daemon's /v1/jobs
// endpoints. A submission uploads the input once, gets a job ID back
// immediately, and the compression runs in the daemon's background
// queue; the result stays fetchable from the daemon's content-addressed
// artifact store (surviving a daemon restart when tcompd runs with
// -store-dir) until it is removed or garbage-collected.
//
//	j, err := c.SubmitCompressJob(ctx, "golomb", patterns, tcomp.WithSeed(7))
//	j, err = c.WaitJob(ctx, j.ID)
//	if j.State == tcomp.JobDone {
//		_, err = c.JobResult(ctx, j.ID, containerFile)
//	}

// Job states as the daemon reports them.
const (
	JobPending   = "pending"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// Typed sentinels for the async job taxonomy, matched by errors.Is
// against the *RemoteError a Client method returns:
//
//	ErrJobNotFound the job ID is unknown (never submitted, removed, or
//	               its result artifact was garbage-collected) — HTTP
//	               404 job_not_found
//	ErrJobNotDone  the job exists but has no result yet (still queued
//	               or running, failed, or cancelled) — HTTP 409
//	               job_not_done
//	ErrQueueFull   the daemon's job backlog is at capacity; retry
//	               later — HTTP 429 queue_full
var (
	ErrJobNotFound = errors.New("tcomp: job not found on the daemon")
	ErrJobNotDone  = errors.New("tcomp: job has not produced a result")
	ErrQueueFull   = errors.New("tcomp: daemon job queue is full")
)

// JobSpec is a job's specification: what kind of work, which codec and
// parameters, and the content address of the stored input blob. The
// daemon validates it and keeps it on the job record.
type JobSpec struct {
	Kind   string           `json:"kind"`
	Codec  string           `json:"codec,omitempty"`
	Format string           `json:"format,omitempty"` // compress: "v2" or "v3" (default)
	Codecs []string         `json:"codecs,omitempty"` // sweep/flow: the codecs to compare or race
	Params map[string]int64 `json:"params,omitempty"`
	Input  string           `json:"input"`
	// Flow-only fields (kind "flow"). Benchmark selects a registry
	// circuit to generate (the input blob is ignored then); empty means
	// the input blob is a .bench netlist. Tests picks the generation kind
	// (FlowStuckAt, the default, or FlowPathDelay); Sample overrides the
	// advisor's race prefix length.
	Benchmark string `json:"benchmark,omitempty"`
	Tests     string `json:"tests,omitempty"`
	Sample    int    `json:"sample,omitempty"`
}

// JobArtifact is one named extra artifact of a finished job — flow jobs
// carry "container" and "verilog".
type JobArtifact struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	Size   int64  `json:"size"`
}

// JobProgress reports how far a running job has come, in patterns and
// completed chunks.
type JobProgress struct {
	Patterns int `json:"patterns"`
	Chunks   int `json:"chunks_completed"`
}

// JobStats is the size accounting of a finished job, mirroring the
// X-Tcomp-* headers of the synchronous endpoints.
type JobStats = ContainerStats

// JobStatus is one job record. It is also the daemon's own record: the
// daemon journals this type, one JSON file per job, and serves it from
// GET /v1/jobs/{id} and GET /v1/flows/{id}, so the journal, the API and
// the client share one definition.
type JobStatus struct {
	ID         string      `json:"id"`
	Spec       JobSpec     `json:"spec"`
	State      string      `json:"state"`
	Created    time.Time   `json:"created"`
	Started    time.Time   `json:"started"`
	Finished   time.Time   `json:"finished"`
	Progress   JobProgress `json:"progress"`
	Output     string      `json:"output,omitempty"`
	OutputSize int64       `json:"output_size,omitempty"`
	Stats      *JobStats   `json:"stats,omitempty"`
	// Artifacts lists a flow job's named extra outputs, fetchable via
	// FlowArtifact.
	Artifacts []JobArtifact `json:"artifacts,omitempty"`
	Error     string        `json:"error,omitempty"`
	// ErrorCode carries the taxonomy code of a failed job (e.g.
	// "corrupt_container", "internal_panic"), so an async caller can
	// classify the failure exactly like a synchronous one.
	ErrorCode string `json:"error_code,omitempty"`
	// RequestID is the X-Request-Id of the HTTP request that submitted
	// the job — the key that links the async record back to the daemon's
	// structured logs for the submission.
	RequestID string `json:"request_id,omitempty"`
	// TraceParent is the W3C trace context the job's worker spans export
	// under, journalled by the daemon so the link survives a restart.
	TraceParent string `json:"traceparent,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j *JobStatus) Terminal() bool {
	switch j.State {
	case JobDone, JobFailed, JobCancelled:
		return true
	}
	return false
}

// SubmitCompressJob uploads the test set on patterns, textual or TSET
// binary, and queues an asynchronous compression with the named codec;
// the job reads either format a pattern at a time.
// The options travel as the same query parameters the synchronous
// endpoint uses; format selects the container ("" or "v3" for the
// chunked stream container, "v2" for the buffered form) via
// SubmitCompressJobFormat. The returned record is in state "pending" —
// poll with Job or WaitJob and fetch the container with JobResult.
func (c *Client) SubmitCompressJob(ctx context.Context, codecName string, patterns io.Reader, opts ...Option) (*JobStatus, error) {
	return c.SubmitCompressJobFormat(ctx, codecName, "", patterns, opts...)
}

// SubmitCompressJobFormat is SubmitCompressJob with an explicit
// container format ("v2" or "v3"; "" means the daemon default, v3).
func (c *Client) SubmitCompressJobFormat(ctx context.Context, codecName, format string, patterns io.Reader, opts ...Option) (*JobStatus, error) {
	q := optionValues(opts)
	q.Set("kind", "compress")
	q.Set("codec", codecName)
	if format != "" {
		q.Set("format", format)
	}
	return c.submitJob(ctx, q, patterns, "text/plain")
}

// SubmitDecompressJob uploads a container (any version) and queues its
// asynchronous expansion into textual patterns.
func (c *Client) SubmitDecompressJob(ctx context.Context, container io.Reader) (*JobStatus, error) {
	q := url.Values{}
	q.Set("kind", "decompress")
	return c.submitJob(ctx, q, container, "application/octet-stream")
}

// SubmitSweepJob uploads a test set and queues a rate sweep across the
// named codecs; the job's result is a JSON report comparing their
// compression rates on that input.
func (c *Client) SubmitSweepJob(ctx context.Context, codecs []string, patterns io.Reader, opts ...Option) (*JobStatus, error) {
	q := optionValues(opts)
	q.Set("kind", "sweep")
	q.Set("codecs", strings.Join(codecs, ","))
	return c.submitJob(ctx, q, patterns, "text/plain")
}

func (c *Client) submitJob(ctx context.Context, q url.Values, body io.Reader, contentType string) (*JobStatus, error) {
	return c.submitAsync(ctx, "/v1/jobs", q, body, contentType)
}

// submitAsync posts a body to an async submission endpoint (/v1/jobs or
// /v1/flows) and decodes the 202 job record.
func (c *Client) submitAsync(ctx context.Context, path string, q url.Values, body io.Reader, contentType string) (*JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+path+"?"+q.Encode(), body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	// Submission bypasses do (it expects 202, not 200) but must inject
	// the traceparent the same way: the daemon journals it on the job.
	injectTraceparent(req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, apiError(resp)
	}
	return decodeJob(resp.Body)
}

// Job fetches the current record of one job (GET /v1/jobs/{id}).
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	resp, err := c.get(ctx, "/v1/jobs/"+url.PathEscape(id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return decodeJob(resp.Body)
}

// Jobs lists every job the daemon knows, in submission order
// (GET /v1/jobs).
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	resp, err := c.get(ctx, "/v1/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// get issues GET BaseURL+path through do: a 200 response comes back
// with its body open, anything else as the daemon's typed error.
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

// CancelJob cancels an active job or removes a terminal one
// (DELETE /v1/jobs/{id}); the returned record is the job's final state.
func (c *Client) CancelJob(ctx context.Context, id string) (*JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.BaseURL+"/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return decodeJob(resp.Body)
}

// JobResult streams a done job's output artifact into w
// (GET /v1/jobs/{id}/result) and returns the job's size accounting. A
// job without a result yet answers ErrJobNotDone; an unknown job or a
// garbage-collected artifact answers ErrJobNotFound.
func (c *Client) JobResult(ctx context.Context, id string, w io.Writer) (*RemoteStats, error) {
	resp, err := c.get(ctx, "/v1/jobs/"+url.PathEscape(id)+"/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(w, resp.Body); err != nil {
		return nil, err
	}
	return remoteStats("", resp), nil
}

// Backoff bounds of WaitJob's default polling schedule: the delay
// doubles from waitBaseDelay until it saturates at waitMaxDelay, so a
// short job is noticed within ~100ms while a long wait settles to one
// poll every 3s instead of hammering the daemon at the old fixed 250ms.
const (
	waitBaseDelay = 100 * time.Millisecond
	waitMaxDelay  = 3 * time.Second
)

// waitDelay returns the pause before poll attempt+2 (the first poll
// happens immediately). An explicit PollInterval pins the historical
// fixed cadence; fixed <= 0 selects the capped exponential schedule
// 100ms, 200ms, 400ms, 800ms, 1.6s, 3s, 3s, ...
func waitDelay(fixed time.Duration, attempt int) time.Duration {
	if fixed > 0 {
		return fixed
	}
	d := waitBaseDelay
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= waitMaxDelay {
			return waitMaxDelay
		}
	}
	return d
}

// WaitJob polls the job until it reaches a terminal state (done,
// failed, or cancelled) and returns its final record; the caller
// decides what a failed or cancelled job means. A set PollInterval is
// the fixed polling cadence; when unset, polling backs off
// exponentially from 100ms to a 3s cap. The context bounds the total
// wait.
func (c *Client) WaitJob(ctx context.Context, id string) (*JobStatus, error) {
	for attempt := 0; ; attempt++ {
		j, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if j.Terminal() {
			return j, nil
		}
		t := time.NewTimer(waitDelay(c.PollInterval, attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return j, ctx.Err()
		case <-t.C:
		}
	}
}

func decodeJob(r io.Reader) (*JobStatus, error) {
	var j JobStatus
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("tcomp: decoding job record: %w", err)
	}
	return &j, nil
}

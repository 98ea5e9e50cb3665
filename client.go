package tcomp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/testset"
)

// Client talks to a tcompd compression daemon (cmd/tcompd). Bodies
// stream in both directions — Compress uploads patterns as a chunked
// request body and Decompress consumes the response incrementally — so
// a multi-gigabyte test set passes through the client at O(chunk)
// memory, matching the daemon's own memory model. All methods honor
// context cancellation through the standard net/http plumbing.
//
//	c := tcomp.NewClient("http://localhost:8077")
//	stats, err := c.Compress(ctx, "golomb", patternsFile, containerFile)
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8077".
	BaseURL string
	// HTTPClient overrides the transport; nil means http.DefaultClient.
	HTTPClient *http.Client
	// PollInterval is WaitJob's polling cadence; <= 0 means 250ms.
	PollInterval time.Duration
	// CallTimeout bounds the small control-plane calls (Health, Codecs)
	// when the caller's context carries no deadline of its own, so a
	// wedged daemon cannot hang a health probe forever. 0 means 10s;
	// negative disables the default. Data-plane calls (Compress,
	// Decompress, job submissions) are never bounded this way — they
	// legitimately run as long as the data is large.
	CallTimeout time.Duration
}

// NewClient returns a Client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// callCtx applies the control-plane CallTimeout default when the
// caller's context has no deadline of its own.
func (c *Client) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok || c.CallTimeout < 0 {
		return ctx, func() {}
	}
	d := c.CallTimeout
	if d == 0 {
		d = 10 * time.Second
	}
	return context.WithTimeout(ctx, d)
}

// RemoteStats summarizes a remote compression, assembled from the
// daemon's response headers (buffered/cached responses) or trailers
// (streamed responses).
type RemoteStats struct {
	Codec                        string
	Patterns, Chunks             int
	OriginalBits, CompressedBits int
	// CacheHit reports that the daemon served the artifact from its
	// content-addressed result cache. The bytes are identical either way.
	CacheHit bool
	// RequestID is the daemon's X-Request-Id for this call — quote it
	// when reporting a problem so the operator can grep the daemon's
	// structured logs for the exact request.
	RequestID string
}

// RatePercent returns the paper-style compression rate.
func (s RemoteStats) RatePercent() float64 {
	if s.OriginalBits == 0 {
		return 0
	}
	return 100 * float64(s.OriginalBits-s.CompressedBits) / float64(s.OriginalBits)
}

// optionValues encodes resolved compression options as daemon query
// parameters. Workers is forwarded as a hint but deliberately excluded
// from the daemon's cache key — output bytes are worker-count
// independent.
func optionValues(opts []Option) url.Values {
	o := buildOptions(opts)
	v := url.Values{}
	v.Set("seed", strconv.FormatInt(o.seed, 10))
	setInt := func(key string, val int) {
		if val > 0 {
			v.Set(key, strconv.Itoa(val))
		}
	}
	setInt("k", o.blockLen)
	setInt("l", o.mvCount)
	setInt("runs", o.runs)
	setInt("workers", o.workers)
	setInt("m", o.golombM)
	setInt("d", o.dictSize)
	setInt("b", o.counterW)
	setInt("chunk", o.chunkPats)
	return v
}

// Typed sentinels for the daemon's error taxonomy. Every error a Client
// method returns for a daemon-reported failure is a *RemoteError, and
// errors.Is maps it onto exactly one of these, so callers can branch on
// the class ("is this my input's fault or the daemon's?") without
// parsing messages:
//
//	ErrBadRequest   the request itself was malformed (HTTP 400/405:
//	                unknown parameter, out-of-range value, bad test-set
//	                syntax, a body that is not a container at all)
//	ErrTooLarge     the request body hit the daemon's size cap (HTTP
//	                413) — split the submission or raise the daemon's
//	                -max-body
//	ErrCorruptInput well-formed request, unprocessable input (HTTP 422:
//	                corrupt or truncated container, uncompressible set;
//	                also mid-stream corruption reported via trailer)
//	ErrRemoteInternal a daemon-side bug, contained (HTTP 500; the
//	                daemon recovered the panic and kept serving)
//	ErrUnavailable  the daemon is draining or dropped the request while
//	                it was queued (HTTP 503) — retry elsewhere or later
//
// Flow submissions additionally map code "flow_invalid_circuit" (HTTP
// 422) onto ErrInvalidCircuit — the shared sentinel of the local
// TestFlow API — so a caller handles a bad netlist identically whether
// the flow ran in-process or on a daemon.
var (
	ErrBadRequest     = errors.New("tcomp: daemon rejected the request as malformed")
	ErrTooLarge       = errors.New("tcomp: request exceeds the daemon's size limit")
	ErrCorruptInput   = errors.New("tcomp: daemon could not process the input")
	ErrRemoteInternal = errors.New("tcomp: daemon internal error")
	ErrUnavailable    = errors.New("tcomp: daemon unavailable")
)

// RemoteError is a daemon-reported failure: the HTTP status, the
// machine-readable taxonomy code (the "code" field of the JSON error
// body, or the X-Tcomp-Error-Code trailer for mid-stream failures —
// empty when talking to a pre-taxonomy daemon), and the human-readable
// message. errors.Is(err, ErrBadRequest/ErrCorruptInput/
// ErrRemoteInternal/ErrUnavailable) classifies it.
type RemoteError struct {
	// Status is the HTTP status code, or 0 when the failure arrived as a
	// trailer on an already-streaming 200 response.
	Status int
	// Code is the taxonomy code (e.g. "bad_request", "corrupt_container",
	// "unprocessable", "internal_panic", "unavailable").
	Code string
	// Message is the daemon's human-readable error text.
	Message string
	// RequestID is the daemon's X-Request-Id for the failing request
	// (empty when talking to a pre-tracing daemon) — the key that links
	// this error to the daemon's server-side logs.
	RequestID string
}

func (e *RemoteError) Error() string {
	switch {
	case e.Status != 0 && e.Code != "":
		return fmt.Sprintf("tcomp: daemon: %s (HTTP %d, %s)", e.Message, e.Status, e.Code)
	case e.Status != 0:
		return fmt.Sprintf("tcomp: daemon: %s (HTTP %d)", e.Message, e.Status)
	case e.Code != "":
		return fmt.Sprintf("tcomp: daemon: %s (%s)", e.Message, e.Code)
	}
	return "tcomp: daemon: " + e.Message
}

// Is maps the remote taxonomy onto the package sentinels. The code is
// authoritative when present; the HTTP status covers daemons (or
// proxies) that answer without one.
func (e *RemoteError) Is(target error) bool {
	switch target {
	case ErrBadRequest:
		return e.Code == "bad_request" || e.Code == "method_not_allowed" ||
			(e.Code == "" && (e.Status == http.StatusBadRequest || e.Status == http.StatusMethodNotAllowed))
	case ErrTooLarge:
		return e.Code == "request_too_large" ||
			(e.Code == "" && e.Status == http.StatusRequestEntityTooLarge)
	case ErrCorruptInput:
		return e.Code == "corrupt_container" || e.Code == "unprocessable" ||
			(e.Code == "" && e.Status == http.StatusUnprocessableEntity)
	case ErrRemoteInternal:
		return e.Code == "internal_panic" ||
			(e.Code == "" && e.Status >= 500 && e.Status != http.StatusServiceUnavailable)
	case ErrUnavailable:
		return e.Code == "unavailable" ||
			(e.Code == "" && e.Status == http.StatusServiceUnavailable)
	case ErrJobNotFound:
		return e.Code == "job_not_found" ||
			(e.Code == "" && e.Status == http.StatusNotFound)
	case ErrJobNotDone:
		return e.Code == "job_not_done" ||
			(e.Code == "" && e.Status == http.StatusConflict)
	case ErrQueueFull:
		return e.Code == "queue_full" ||
			(e.Code == "" && e.Status == http.StatusTooManyRequests)
	case ErrInvalidCircuit:
		// Flow submissions only; no status fallback — a bare 422 from a
		// pre-flow daemon keeps meaning ErrCorruptInput.
		return e.Code == "flow_invalid_circuit"
	}
	return false
}

// apiError decodes a daemon error response — the taxonomy JSON object
// {"code": ..., "error": ..., "status": ...} — into a *RemoteError.
// Legacy bodies ({"error": ...} only) and non-JSON bodies still produce
// a RemoteError, classified by HTTP status alone.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	e := &RemoteError{
		Status:    resp.StatusCode,
		Code:      resp.Header.Get("X-Tcomp-Error-Code"),
		RequestID: resp.Header.Get("X-Request-Id"),
	}
	var parsed struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &parsed) == nil && parsed.Error != "" {
		e.Message = parsed.Error
		if parsed.Code != "" {
			e.Code = parsed.Code
		}
	} else {
		e.Message = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return e
}

// trailerError converts a mid-stream failure reported through the
// X-Tcomp-Error / X-Tcomp-Error-Code trailers into a *RemoteError.
// Trailers become visible only once the body has been drained; callers
// invoke this after their final read.
func trailerError(resp *http.Response) error {
	msg := resp.Trailer.Get("X-Tcomp-Error")
	if msg == "" {
		return nil
	}
	code := resp.Trailer.Get("X-Tcomp-Error-Code")
	if code == "" {
		// Pre-taxonomy daemons name only the message; mid-stream
		// failures are input corruption unless stated otherwise.
		code = "corrupt_container"
	}
	return &RemoteError{Code: code, Message: msg, RequestID: resp.Header.Get("X-Request-Id")}
}

func (c *Client) do(req *http.Request) (*http.Response, error) {
	injectTraceparent(req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return resp, nil
}

// injectTraceparent stamps the W3C traceparent header on an outgoing
// request: the trace context carried by the request's context (a live
// span, or one installed with WithTraceparent) when present, otherwise
// a fresh sampled root minted here — so even a bare CLI call produces
// one coherent trace on the daemon side.
func injectTraceparent(req *http.Request) {
	tp := obs.TraceparentFromContext(req.Context())
	if tp == "" {
		tp = obs.FormatTraceparent(obs.TraceContext{
			TraceID: obs.NewTraceID(),
			SpanID:  obs.NewSpanID(),
			Sampled: true,
		})
	}
	req.Header.Set("traceparent", tp)
}

// WithTraceparent returns a context carrying the given W3C traceparent
// value, validated exactly like the daemon validates the inbound
// header. Client calls made with the returned context propagate it to
// the daemon, joining this process's calls to a trace started
// elsewhere.
func WithTraceparent(ctx context.Context, traceparent string) (context.Context, error) {
	tc, err := obs.ParseTraceparent(traceparent)
	if err != nil {
		return ctx, err
	}
	return obs.WithTraceContext(ctx, tc), nil
}

// Compress streams the test set on patterns, textual or TSET binary,
// through the daemon's POST /v1/compress and copies the returned
// container to container. The daemon reads either format a pattern at
// a time. By default it answers with a chunked stream container
// (format v3); see CompressSet for the buffered v2 form.
func (c *Client) Compress(ctx context.Context, codecName string, patterns io.Reader, container io.Writer, opts ...Option) (*RemoteStats, error) {
	q := optionValues(opts)
	q.Set("codec", codecName)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v1/compress?"+q.Encode(), patterns)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(container, resp.Body); err != nil {
		return nil, err
	}
	// A mid-stream daemon failure arrives as a trailer on an otherwise
	// 200 response; surfacing it here is what keeps a truncated
	// container from being reported as success.
	if err := trailerError(resp); err != nil {
		return nil, err
	}
	return remoteStats(codecName, resp), nil
}

// CompressSet compresses an in-memory test set remotely and returns the
// parsed artifact (the daemon answers in the buffered v2 container
// format), interchangeable with the artifact a local
// codec.Compress(...) produces.
func (c *Client) CompressSet(ctx context.Context, codecName string, ts *TestSet, opts ...Option) (*Artifact, *RemoteStats, error) {
	var in bytes.Buffer
	if err := ts.Write(&in); err != nil {
		return nil, nil, err
	}
	q := optionValues(opts)
	q.Set("codec", codecName)
	q.Set("format", "v2")
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v1/compress?"+q.Encode(), &in)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := c.do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	art, err := Open(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return art, remoteStats(codecName, resp), nil
}

// remoteStats assembles RemoteStats from response headers and trailers.
// Trailers become visible only after the body has been drained, which
// every caller has done by now.
func remoteStats(codecName string, resp *http.Response) *RemoteStats {
	get := func(key string) string {
		if v := resp.Header.Get(key); v != "" {
			return v
		}
		return resp.Trailer.Get(key)
	}
	atoi := func(s string) int { n, _ := strconv.Atoi(s); return n }
	return &RemoteStats{
		Codec:          codecName,
		Patterns:       atoi(get("X-Tcomp-Patterns")),
		Chunks:         atoi(get("X-Tcomp-Chunks")),
		OriginalBits:   atoi(get("X-Tcomp-Original-Bits")),
		CompressedBits: atoi(get("X-Tcomp-Compressed-Bits")),
		CacheHit:       get("X-Tcomp-Cache") == "hit",
		RequestID:      resp.Header.Get("X-Request-Id"),
	}
}

// Decompress streams a container (any version — v1, v2, or chunked v3)
// through the daemon's POST /v1/decompress and copies the textual
// patterns to patterns. A corruption the daemon discovers mid-stream
// arrives as an X-Tcomp-Error trailer and surfaces as an error here.
func (c *Client) Decompress(ctx context.Context, container io.Reader, patterns io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v1/decompress", container)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(patterns, resp.Body); err != nil {
		return err
	}
	return trailerError(resp)
}

// DecompressSet expands an artifact remotely into an in-memory test
// set — the client-side twin of tcomp.Decompress.
func (c *Client) DecompressSet(ctx context.Context, a *Artifact) (*TestSet, error) {
	var in bytes.Buffer
	if err := Write(&in, a); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := c.Decompress(ctx, &in, &out); err != nil {
		return nil, err
	}
	return testset.Read(&out)
}

// Codecs fetches the daemon's registry listing with per-codec parameter
// schemas (GET /v1/codecs). Without a caller deadline the call is
// bounded by CallTimeout (default 10s).
func (c *Client) Codecs(ctx context.Context) ([]CodecInfo, error) {
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/codecs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var infos []CodecInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Health probes GET /healthz. It returns nil while the daemon accepts
// new work and an error once it is unreachable or draining. Without a
// caller deadline the probe is bounded by CallTimeout (default 10s),
// so a wedged daemon fails the probe instead of hanging it.
func (c *Client) Health(ctx context.Context) error {
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	_ = resp.Body.Close()
	return nil
}

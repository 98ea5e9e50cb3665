package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	tcomp "repro"
	"repro/internal/jobs"
)

// ---- /v1/jobs ----

// handleJobs serves the collection endpoint: POST submits, GET lists.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(s.jobs.List()) // client gone: nothing to do
	default:
		writeError(w, CodeMethodNotAllowed, "use POST to submit or GET to list")
	}
}

// parseJobQuery translates the submit query into a job spec. The
// parameter vocabulary mirrors /v1/compress (same keys, same shared
// range table — enforced again by the manager) plus kind and codecs.
// Flows have their own submit path, POST /v1/flows, which parses the
// netlist before it queues anything.
func parseJobQuery(q url.Values) (tcomp.JobSpec, error) {
	spec := tcomp.JobSpec{Kind: jobs.KindCompress}
	params, _, err := parseParams(q, "kind", "codec", "format", "codecs")
	if err != nil {
		return spec, err
	}
	spec.Params = params
	if k := q.Get("kind"); k != "" {
		spec.Kind = k
	}
	if spec.Kind == jobs.KindFlow {
		return spec, fmt.Errorf("kind=flow is not submitted here: use POST /v1/flows")
	}
	spec.Codec = q.Get("codec")
	spec.Format = q.Get("format")
	if cs := q.Get("codecs"); cs != "" {
		spec.Codecs = strings.Split(cs, ",")
	}
	if spec.Kind == jobs.KindCompress && spec.Codec == "" {
		return spec, fmt.Errorf("missing codec parameter (see GET /v1/codecs)")
	}
	return spec, nil
}

// handleJobSubmit stores the request body as the input artifact and
// queues the job.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := parseJobQuery(r.URL.Query())
	if err != nil {
		writeError(w, CodeBadRequest, "%v", err)
		return
	}
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), n: s.metrics.BytesIn}
	d, _, err := s.store.Put(body)
	if err != nil {
		writeError(w, bodyErrorCode(err, CodeBadRequest), "storing input: %v", err)
		return
	}
	spec.Input = string(d)
	s.submit(w, r, spec, "/v1/jobs/")
}

// submit queues a job spec whose input is already stored. The 202
// answer carries the job record, with its Location under prefix
// (/v1/jobs/ or /v1/flows/); the work happens in the background.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, spec tcomp.JobSpec, prefix string) {
	j, err := s.jobs.SubmitCtx(r.Context(), spec)
	if err != nil {
		switch {
		case errors.Is(err, tcomp.ErrInvalidCircuit):
			writeError(w, CodeFlowInvalidCircuit, "%v", err)
		case errors.Is(err, jobs.ErrQueueFull):
			s.metrics.Jobs.Add("queue_full", 1)
			writeError(w, CodeQueueFull, "%v", err)
		case errors.Is(err, jobs.ErrClosed):
			writeError(w, CodeUnavailable, "%v", err)
		default:
			writeError(w, CodeBadRequest, "%v", err)
		}
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Location", prefix+j.ID)
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(j) // client gone: nothing to do
}

// ---- /v1/jobs/{id} and /v1/jobs/{id}/result ----

// handleJobByID routes the per-job endpoints. The mux is pre-1.22
// compatible, so the ID and the optional /result suffix are parsed by
// hand; malformed IDs fall out as job_not_found, never as file paths.
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || (sub != "" && sub != "result") {
		writeError(w, CodeJobNotFound, "no such endpoint under /v1/jobs/")
		return
	}
	if sub == "result" {
		if r.Method != http.MethodGet {
			writeError(w, CodeMethodNotAllowed, "use GET")
			return
		}
		s.handleJobBlob(w, id, "")
		return
	}
	switch r.Method {
	case http.MethodGet:
		j, err := s.jobs.Get(id)
		if err != nil {
			writeError(w, CodeJobNotFound, "job %s: not found", id)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(j) // client gone: nothing to do
	case http.MethodDelete:
		s.handleJobDelete(w, id)
	default:
		writeError(w, CodeMethodNotAllowed, "use GET or DELETE")
	}
}

// handleJobBlob streams one blob of a done job: its output (name "")
// with the same stats headers the synchronous endpoints use, or a flow
// job's named artifact.
func (s *Server) handleJobBlob(w http.ResponseWriter, id, name string) {
	rc, blob, j, err := s.jobs.Open(id, name)
	if err != nil {
		what := "result"
		if name != "" {
			what = fmt.Sprintf("artifact %q", name)
		}
		switch {
		case errors.Is(err, jobs.ErrNotFound):
			writeError(w, CodeJobNotFound, "job %s: %s not found", id, what)
		case errors.Is(err, jobs.ErrGone):
			writeError(w, CodeJobNotFound, "job %s: %s expired (GC)", id, what)
		case errors.Is(err, jobs.ErrNotDone) && j.State == tcomp.JobFailed:
			writeError(w, CodeJobNotDone, "job %s failed (%s): %s", id, j.ErrorCode, j.Error)
		case errors.Is(err, jobs.ErrNotDone):
			writeError(w, CodeJobNotDone, "job %s is %s", id, j.State)
		default:
			writeError(w, CodeInternalPanic, "opening %s: %v", what, err)
		}
		return
	}
	defer rc.Close()
	ct := "application/octet-stream"
	if name == "verilog" {
		ct = "text/plain; charset=utf-8"
	}
	h := w.Header()
	h.Set("Content-Type", ct)
	h.Set("Content-Length", strconv.FormatInt(blob.Size, 10))
	h.Set("X-Tcomp-Job-Id", j.ID)
	if st := j.Stats; st != nil && name == "" {
		h.Set("X-Tcomp-Patterns", strconv.Itoa(st.Patterns))
		h.Set("X-Tcomp-Chunks", strconv.Itoa(st.Chunks))
		h.Set("X-Tcomp-Original-Bits", strconv.Itoa(st.OriginalBits))
		h.Set("X-Tcomp-Compressed-Bits", strconv.Itoa(st.CompressedBits))
	}
	_, _ = io.Copy(&countingWriter{w: w, n: s.metrics.BytesOut}, rc) // client gone: nothing to do
}

// handleJobDelete cancels an active job or removes a terminal one — one
// verb, state-dependent meaning, mirroring what an operator wants DELETE
// to do in either case. The answer is the final job record (for a
// removal, its last snapshot).
func (s *Server) handleJobDelete(w http.ResponseWriter, id string) {
	j, err := s.jobs.Get(id)
	if err != nil {
		writeError(w, CodeJobNotFound, "job %s: not found", id)
		return
	}
	if j.Terminal() {
		if err := s.jobs.Remove(id); err != nil && !errors.Is(err, jobs.ErrNotFound) {
			if errors.Is(err, jobs.ErrActive) {
				// Raced a resubmission-free transition; treat as cancel.
				_ = s.jobs.Cancel(id)
			} else {
				writeError(w, CodeInternalPanic, "removing job: %v", err)
				return
			}
		}
	} else {
		if err := s.jobs.Cancel(id); err != nil && !errors.Is(err, jobs.ErrNotFound) {
			writeError(w, CodeInternalPanic, "cancelling job: %v", err)
			return
		}
		if cur, err := s.jobs.Get(id); err == nil {
			j = cur
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(j) // client gone: nothing to do
}

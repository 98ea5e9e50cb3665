package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	tcomp "repro"
	"repro/internal/jobs"
)

// ---- /v1/flows and /v1/benchmarks ----
//
// A flow is an async job (kind "flow") wearing its own resource: the
// collection endpoints filter on the kind, the per-flow endpoints are
// the job endpoints plus artifact fetching. Keeping flows inside the
// job manager buys everything jobs already solved — journal durability,
// shutdown parking, cancellation, the shared worker budget — for free.

// parseFlowQuery translates the flow submit query into a job spec. The
// compression parameters mirror /v1/compress; benchmark/tests/sample
// are flow-specific.
func parseFlowQuery(q url.Values) (tcomp.JobSpec, error) {
	spec := tcomp.JobSpec{Kind: jobs.KindFlow}
	params, _, err := parseParams(q, "benchmark", "tests", "sample", "codecs")
	if err != nil {
		return spec, err
	}
	spec.Params = params
	spec.Benchmark = q.Get("benchmark")
	spec.Tests = q.Get("tests")
	if raw := q.Get("sample"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return spec, fmt.Errorf("parameter sample=%q is not an integer", raw)
		}
		spec.Sample = v
	}
	if cs := q.Get("codecs"); cs != "" {
		spec.Codecs = strings.Split(cs, ",")
	}
	return spec, nil
}

// handleFlows serves the collection endpoint: POST submits, GET lists
// the flow jobs.
func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleFlowSubmit(w, r)
	case http.MethodGet:
		out := []tcomp.JobStatus{}
		for _, j := range s.jobs.List() {
			if j.Spec.Kind == jobs.KindFlow {
				out = append(out, j)
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(out) // client gone: nothing to do
	default:
		writeError(w, CodeMethodNotAllowed, "use POST to submit or GET to list")
	}
}

// handleFlowSubmit stores the .bench body (when present) and queues the
// flow job. A ?benchmark= submission may omit the body entirely — the
// daemon generates the registry circuit itself.
func (s *Server) handleFlowSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := parseFlowQuery(r.URL.Query())
	if err != nil {
		writeError(w, CodeBadRequest, "%v", err)
		return
	}
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), n: s.metrics.BytesIn}
	br := getBufReader(body)
	defer putBufReader(br)
	if _, perr := br.Peek(1); perr != io.EOF {
		if perr != nil {
			writeError(w, bodyErrorCode(perr, CodeBadRequest), "reading netlist: %v", perr)
			return
		}
		// Reject a bad netlist at submit time, before anything is stored:
		// the parse is cheap (bounds-capped), and a synchronous 422 beats
		// discovering the same failure by polling the job. The flow worker
		// re-parses from the stored blob when it runs.
		var raw bytes.Buffer
		if _, err := tcomp.NewTestFlow().ParseCircuit("submitted", io.TeeReader(br, &raw)); err != nil {
			writeError(w, CodeFlowInvalidCircuit, "%v", err)
			return
		}
		d, _, err := s.store.Put(bytes.NewReader(raw.Bytes()))
		if err != nil {
			writeError(w, bodyErrorCode(err, CodeBadRequest), "storing netlist: %v", err)
			return
		}
		spec.Input = string(d)
	}
	s.submit(w, r, spec, "/v1/flows/")
}

// handleFlowByID routes the per-flow endpoints: the record, the JSON
// report (/result), the named binary artifacts (/artifacts/{name}), and
// DELETE. A job ID of a different kind answers 404 — flows and generic
// jobs are distinct resources even though they share the manager.
func (s *Server) handleFlowByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/flows/")
	id, sub, _ := strings.Cut(rest, "/")
	artName := ""
	if prefix, name, ok := strings.Cut(sub, "/"); ok && prefix == "artifacts" && name != "" && !strings.Contains(name, "/") {
		sub, artName = "artifacts", name
	}
	if id == "" || (sub != "" && sub != "result" && sub != "artifacts") {
		writeError(w, CodeJobNotFound, "no such endpoint under /v1/flows/")
		return
	}
	j, err := s.jobs.Get(id)
	if err != nil || j.Spec.Kind != jobs.KindFlow {
		writeError(w, CodeJobNotFound, "flow %s: not found", id)
		return
	}
	switch sub {
	case "result":
		if r.Method != http.MethodGet {
			writeError(w, CodeMethodNotAllowed, "use GET")
			return
		}
		s.handleJobBlob(w, id, "")
	case "artifacts":
		if r.Method != http.MethodGet {
			writeError(w, CodeMethodNotAllowed, "use GET")
			return
		}
		s.handleJobBlob(w, id, artName)
	default:
		switch r.Method {
		case http.MethodGet:
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = json.NewEncoder(w).Encode(j) // client gone: nothing to do
		case http.MethodDelete:
			s.handleJobDelete(w, id)
		default:
			writeError(w, CodeMethodNotAllowed, "use GET or DELETE")
		}
	}
}

// handleBenchmarks serves the ISCAS-style registry: the rows of the
// paper's tables 1 and 2, each a valid ?benchmark= value for a flow.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, CodeMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(tcomp.Benchmarks()) // client gone: nothing to do
}

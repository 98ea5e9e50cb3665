package tcomp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
)

// FlowRequest describes a flow submission to POST /v1/flows: which
// circuit to run the hardware-test pipeline on, and how.
type FlowRequest struct {
	// Benchmark names a registry circuit (see Client.Benchmarks) for the
	// daemon to generate. When set, Netlist must be nil.
	Benchmark string
	// Netlist is a .bench netlist body for a caller-supplied circuit.
	// Required when Benchmark is empty.
	Netlist io.Reader
	// Tests selects the generation kind: FlowStuckAt (the default when
	// empty) or FlowPathDelay.
	Tests string
	// Sample caps the race prefix: how many patterns each codec sees
	// before the winner runs on the full set. 0 keeps the daemon default.
	Sample int
	// Codecs restricts the race entrants. Empty races every codec.
	Codecs []string
	// Options carries the compression parameters (seed, workers, codec
	// tuning) shared with the synchronous endpoints.
	Options []Option
}

// FlowReport is the JSON report of a finished flow — the /result body,
// and the very blob a flow job stores as its output. It is FlowResult
// plus the list of fetchable binary artifacts.
type FlowReport struct {
	FlowResult
	Artifacts []JobArtifact `json:"artifacts"`
}

// SubmitFlow queues a hardware-test flow on the daemon and returns the
// accepted job record (202). The flow runs circuit → ATPG → codec race
// → container + Verilog decoder asynchronously; poll with WaitJob and
// fetch the outputs with FlowReport and FlowArtifact. A rejected
// circuit maps onto ErrInvalidCircuit.
func (c *Client) SubmitFlow(ctx context.Context, req FlowRequest) (*JobStatus, error) {
	q := optionValues(req.Options)
	if req.Benchmark != "" {
		q.Set("benchmark", req.Benchmark)
	}
	if req.Tests != "" {
		q.Set("tests", req.Tests)
	}
	if req.Sample > 0 {
		q.Set("sample", strconv.Itoa(req.Sample))
	}
	if len(req.Codecs) > 0 {
		q.Set("codecs", strings.Join(req.Codecs, ","))
	}
	body := req.Netlist
	if body == nil {
		if req.Benchmark == "" {
			return nil, fmt.Errorf("tcomp: flow needs a Benchmark name or a Netlist body")
		}
		body = strings.NewReader("")
	}
	return c.submitAsync(ctx, "/v1/flows", q, body, "text/plain")
}

// Flows lists the daemon's flow jobs, newest last.
func (c *Client) Flows(ctx context.Context) ([]JobStatus, error) {
	resp, err := c.get(ctx, "/v1/flows")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("tcomp: decoding flow list: %w", err)
	}
	return out, nil
}

// FlowReport fetches and decodes the JSON report of a done flow.
// ErrJobNotFound / ErrJobNotDone classify the usual failure modes.
func (c *Client) FlowReport(ctx context.Context, id string) (*FlowReport, error) {
	resp, err := c.get(ctx, "/v1/flows/"+url.PathEscape(id)+"/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rep FlowReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("tcomp: decoding flow report: %w", err)
	}
	return &rep, nil
}

// FlowArtifact streams one named binary artifact of a done flow into w:
// "container" (the winner's v3 container) or "verilog" (the
// synthesizable decoder). Returns the byte count written.
func (c *Client) FlowArtifact(ctx context.Context, id, name string, w io.Writer) (int64, error) {
	resp, err := c.get(ctx, "/v1/flows/"+url.PathEscape(id)+"/artifacts/"+url.PathEscape(name))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return io.Copy(w, resp.Body)
}

// Benchmarks fetches the daemon's ISCAS-style benchmark registry — the
// valid FlowRequest.Benchmark values and their paper-table shapes.
func (c *Client) Benchmarks(ctx context.Context) ([]Benchmark, error) {
	resp, err := c.get(ctx, "/v1/benchmarks")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []Benchmark
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("tcomp: decoding benchmark registry: %w", err)
	}
	return out, nil
}

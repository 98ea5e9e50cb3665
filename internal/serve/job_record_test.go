package serve

// The async job record as a contract: what the journal holds is what
// GET /v1/jobs/{id} answers and what tcomp.Client decodes, and a failed
// job's taxonomy code is the one the synchronous endpoints would give.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	tcomp "repro"
	"repro/internal/artifact"
	"repro/internal/pipeline"
)

// TestJournalledRecordsServedVerbatim starts a daemon on a journal that
// holds a done flow job and a failed compress job, which between them
// set every field of the record. GET /v1/jobs/{id} must answer exactly
// the journalled record in compact form, and tcomp.Client.Job must
// decode it to the same values.
func TestJournalledRecordsServedVerbatim(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "journal", "*.json"))
	if err != nil || len(files) != 2 {
		t.Fatalf("golden journal: %v, %v", files, err)
	}
	dir := t.TempDir()
	raws := make([][]byte, len(files))
	for i, f := range files {
		if raws[i], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), raws[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, client := newTestServer(t, Config{JobDir: dir})

	var recs []tcomp.JobStatus
	for i, f := range files {
		id := strings.TrimSuffix(filepath.Base(f), ".json")
		var want bytes.Buffer
		if err := json.Compact(&want, raws[i]); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
		resp, err := http.Get(client.BaseURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("GET /v1/jobs/%s:\n got %s\nwant %s", id, body, want.Bytes())
		}

		var rec tcomp.JobStatus
		if err := json.Unmarshal(raws[i], &rec); err != nil {
			t.Fatal(err)
		}
		got, err := client.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, rec) {
			t.Errorf("Client.Job(%s):\n got %+v\nwant %+v", id, *got, rec)
		}
		recs = append(recs, rec)
	}

	// A field no golden record sets could be dropped or renamed without
	// the byte comparison noticing.
	everySet := func(pick func(tcomp.JobStatus) any) {
		typ := reflect.TypeOf(pick(recs[0]))
		for i := 0; i < typ.NumField(); i++ {
			set := false
			for _, r := range recs {
				set = set || !reflect.ValueOf(pick(r)).Field(i).IsZero()
			}
			if !set {
				t.Errorf("no golden record sets %s.%s", typ.Name(), typ.Field(i).Name)
			}
		}
	}
	everySet(func(r tcomp.JobStatus) any { return r })
	everySet(func(r tcomp.JobStatus) any { return r.Spec })
	everySet(func(r tcomp.JobStatus) any { return r.Progress })
	everySet(func(r tcomp.JobStatus) any { return *r.Stats })
}

// openFailStore is a job store whose Open always fails with err. Every
// job kind reads its input through Open, so every run fails with err
// wrapped.
type openFailStore struct {
	artifact.Store
	err error
}

func (s openFailStore) Open(artifact.Digest) (io.ReadCloser, error) { return nil, s.err }

// TestJobFailureTaxonomy pins the taxonomy code of a failed job for
// every job kind and every shape of job error: a contained panic is
// internal_panic, a rejected circuit flow_invalid_circuit, and anything
// else corrupt_container for a decompress job and unprocessable for the
// other kinds.
func TestJobFailureTaxonomy(t *testing.T) {
	ctx := context.Background()
	const patterns = "4 2\n01X1\n1X00\n"
	kinds := []string{"compress", "decompress", "sweep", "flow"}
	submit := func(c *tcomp.Client, kind string) (*tcomp.JobStatus, error) {
		switch kind {
		case "compress":
			return c.SubmitCompressJob(ctx, "golomb", strings.NewReader(patterns))
		case "decompress":
			return c.SubmitDecompressJob(ctx, strings.NewReader("TCMP"))
		case "sweep":
			return c.SubmitSweepJob(ctx, []string{"golomb", "rl"}, strings.NewReader(patterns))
		}
		return c.SubmitFlow(ctx, tcomp.FlowRequest{
			Netlist: strings.NewReader("INPUT(A)\nINPUT(B)\nOUTPUT(Y)\nY = NAND(A, B)\n"),
		})
	}
	cases := []struct {
		name string
		err  error
		want []string // by kind, in the order of kinds
	}{
		{"plain error", errors.New("disk on fire"),
			[]string{"unprocessable", "corrupt_container", "unprocessable", "unprocessable"}},
		{"wrapped ErrPanic", fmt.Errorf("store: %w", pipeline.ErrPanic),
			[]string{"internal_panic", "internal_panic", "internal_panic", "internal_panic"}},
		{"wrapped ErrInvalidCircuit", fmt.Errorf("store: %w", tcomp.ErrInvalidCircuit),
			[]string{"flow_invalid_circuit", "flow_invalid_circuit", "flow_invalid_circuit", "flow_invalid_circuit"}},
	}
	for _, c := range cases {
		_, client := newTestServer(t, Config{JobStore: openFailStore{Store: artifact.NewMemStore(), err: c.err}})
		client.PollInterval = 2 * time.Millisecond
		for i, kind := range kinds {
			j, err := submit(client, kind)
			if err != nil {
				t.Fatalf("%s job, %s: submit: %v", kind, c.name, err)
			}
			if j, err = client.WaitJob(ctx, j.ID); err != nil {
				t.Fatal(err)
			}
			if j.State != tcomp.JobFailed || j.ErrorCode != c.want[i] {
				t.Errorf("%s job, %s: state %s, code %q (%s); want failed, %q",
					kind, c.name, j.State, j.ErrorCode, j.Error, c.want[i])
			}
		}
	}
}

package benchfmt

import (
	"bytes"
	"strings"
	"testing"
)

const sampleText = `goos: linux
goarch: amd64
pkg: repro/internal/bitstream
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBitstreamWrite/WriteBits         	       1	     73792 ns/op	  94.18 MB/s	   34304 B/op	      15 allocs/op
BenchmarkBitstreamRead/ReadBits-8         	     100	     52119 ns/op	 135.67 MB/s
PASS
ok  	repro/internal/bitstream	0.003s
pkg: repro
BenchmarkSweepKL-8  	       2	 123456789 ns/op	        77.10 bestrate%	         1.20 spread%
PASS
ok  	repro	1.0s
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleText))
	if err != nil {
		t.Fatal(err)
	}
	if f.Goos != "linux" || f.Goarch != "amd64" || f.CPU == "" {
		t.Fatalf("bad header fields: %+v", f)
	}
	if len(f.Results) != 3 {
		t.Fatalf("got %d results, want 3: %+v", len(f.Results), f.Results)
	}
	r0 := f.Results[0]
	if r0.Pkg != "repro/internal/bitstream" || r0.Name != "BenchmarkBitstreamWrite/WriteBits" {
		t.Fatalf("bad result 0: %+v", r0)
	}
	if r0.Procs != 1 || r0.Iters != 1 || r0.NsPerOp != 73792 || r0.MBPerS != 94.18 ||
		r0.BytesPerOp != 34304 || r0.AllocsPerOp != 15 {
		t.Fatalf("bad metrics: %+v", r0)
	}
	r1 := f.Results[1]
	if r1.Name != "BenchmarkBitstreamRead/ReadBits" || r1.Procs != 8 {
		t.Fatalf("procs suffix not stripped: %+v", r1)
	}
	if r1.BytesPerOp != -1 || r1.AllocsPerOp != -1 {
		t.Fatalf("absent allocs should be -1: %+v", r1)
	}
	r2 := f.Results[2]
	if r2.Pkg != "repro" || r2.Extra["bestrate%"] != 77.10 || r2.Extra["spread%"] != 1.20 {
		t.Fatalf("custom metrics not captured: %+v", r2)
	}
	if r0.Key() == r2.Key() {
		t.Fatal("keys must include the package")
	}
}

func TestParseNoResults(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok x 0.1s\n")); err == nil {
		t.Fatal("want error for output without benchmark lines")
	}
}

const sampleTest2JSON = `{"Time":"2026-07-29T10:40:44Z","Action":"start","Package":"repro/internal/bitstream"}
{"Time":"2026-07-29T10:40:44Z","Action":"output","Package":"repro/internal/bitstream","Output":"goos: linux\n"}
{"Time":"2026-07-29T10:40:44Z","Action":"output","Package":"repro/internal/bitstream","Output":"pkg: repro/internal/bitstream\n"}
{"Time":"2026-07-29T10:40:44Z","Action":"output","Package":"repro/internal/bitstream","Output":"BenchmarkBitstreamRead/StreamReader       \t       1\t     41766 ns/op\t 169.30 MB/s\t    4144 B/op\t       2 allocs/op\n"}
{"Time":"2026-07-29T10:40:44Z","Action":"pass","Package":"repro/internal/bitstream","Elapsed":0.004}
`

func TestReadRefusesLegacyFormat(t *testing.T) {
	_, err := Read(strings.NewReader(sampleTest2JSON))
	if err == nil {
		t.Fatal("want error reading a raw test2json stream as a baseline")
	}
}

func TestReadRejectsWrongSchema(t *testing.T) {
	_, err := Read(strings.NewReader(`{"schema":"tcomp-bench/999","results":[{"name":"BenchmarkX"}]}`))
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleText))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(f.Results) || got.Results[0].NsPerOp != f.Results[0].NsPerOp {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
}

func mkFile(ns map[string]float64) *File {
	f := &File{Schema: SchemaVersion}
	for name, v := range ns {
		f.Results = append(f.Results, Result{Pkg: "p", Name: name, Procs: 1, Iters: 10, NsPerOp: v, BytesPerOp: -1, AllocsPerOp: -1})
	}
	return f
}

func TestDiff(t *testing.T) {
	old := mkFile(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100, "BenchmarkGone": 50})
	new := mkFile(map[string]float64{"BenchmarkA": 105, "BenchmarkB": 120, "BenchmarkNew": 7})

	deltas, regressed := Diff(old, new, 0.08)
	if !regressed {
		t.Fatal("B regressed 20% beyond 8% tolerance; Diff must flag it")
	}
	byKey := map[string]Delta{}
	for _, d := range deltas {
		byKey[d.Key] = d
	}
	if d := byKey["p.BenchmarkA"]; d.Regression {
		t.Fatalf("A within tolerance flagged as regression: %+v", d)
	}
	if d := byKey["p.BenchmarkB"]; !d.Regression {
		t.Fatalf("B not flagged: %+v", d)
	}
	if d := byKey["p.BenchmarkGone"]; d.New != nil || d.Regression {
		t.Fatalf("removed benchmark must not regress: %+v", d)
	}
	if d := byKey["p.BenchmarkNew"]; d.Old != nil || d.Regression {
		t.Fatalf("new benchmark must not regress: %+v", d)
	}

	if _, regressed := Diff(old, new, 0.25); regressed {
		t.Fatal("25% tolerance must absorb a 20% delta")
	}
}

func TestMarkdown(t *testing.T) {
	old := mkFile(map[string]float64{"BenchmarkA": 100})
	new := mkFile(map[string]float64{"BenchmarkA": 200})
	deltas, _ := Diff(old, new, 0.08)
	var buf bytes.Buffer
	if err := Markdown(&buf, deltas, 0.08); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"| benchmark |", "p.BenchmarkA", "REGRESSION", "+100.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown table missing %q:\n%s", want, out)
		}
	}
}

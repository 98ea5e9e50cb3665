package tables

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/iscasgen"
)

// smallConfig keeps unit-test runtime low while exercising the full path.
func smallConfig() Config {
	return Config{
		MaxBits:     6000,
		Seed:        1,
		Runs:        1,
		Generations: 25,
		NoImprove:   10,
		Sweep:       false,
	}
}

func TestRunSubsetTable1(t *testing.T) {
	c := smallConfig()
	c.Circuits = []string{"s349", "s386"}
	rows, err := RunTable1(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.Bits == 0 || r.Bits > 6000 {
			t.Fatalf("%s: bits=%d", r.Meta.Name, r.Bits)
		}
		if r.REA2 < r.REA-5 {
			t.Errorf("%s: EA-Best %.1f far below EA %.1f", r.Meta.Name, r.REA2, r.REA)
		}
	}
}

func TestRunSubsetTable2(t *testing.T) {
	c := smallConfig()
	c.Circuits = []string{"s27", "s298"}
	rows, err := RunTable2(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.Meta.Kind != iscasgen.PathDelay {
			t.Fatal("wrong kind in table 2 row")
		}
	}
}

func TestSweepColumn(t *testing.T) {
	c := smallConfig()
	c.Sweep = true
	c.SweepKs = []int{8}
	c.SweepLs = []int{16}
	c.Circuits = []string{"s344"}
	rows, err := RunTable1(c)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].REA2 < rows[0].REA-1e-9 {
		t.Fatalf("sweep best %.2f below EA average %.2f", rows[0].REA2, rows[0].REA)
	}
}

func TestFormat(t *testing.T) {
	c := smallConfig()
	c.Circuits = []string{"s349"}
	rows, err := RunTable1(c)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(rows, iscasgen.StuckAt)
	if !strings.Contains(out, "s349") || !strings.Contains(out, "Average") {
		t.Fatalf("format output missing content:\n%s", out)
	}
	out2 := Format(rows, iscasgen.PathDelay)
	if !strings.Contains(out2, "EA1") {
		t.Fatal("path-delay format must use EA1/EA2 column names")
	}
}

// TestFormatPaperAverages: the published "Average" columns are means
// over the printed rows. Over the whole tables they are the paper's own
// Average rows; a subset prints its own mean.
func TestFormatPaperAverages(t *testing.T) {
	rowsOf := func(metas []iscasgen.Meta) []Row {
		rows := make([]Row, len(metas))
		for i, m := range metas {
			rows[i].Meta = m
		}
		return rows
	}
	averageLine := func(rows []Row, kind iscasgen.Kind) string {
		out := Format(rows, kind)
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "Average") {
				return line
			}
		}
		t.Fatalf("no Average line in:\n%s", out)
		return ""
	}
	published := func(a, b, c, d float64) string {
		return fmt.Sprintf("| %6.1f%% %6.1f%% %6.1f%% %6.1f%%", a, b, c, d)
	}
	if got := averageLine(rowsOf(iscasgen.Table1()), iscasgen.StuckAt); !strings.HasSuffix(got, published(42.6, 46.8, 54.2, 55.9)) {
		t.Errorf("Table 1 Average line %q, want the paper's 42.6/46.8/54.2/55.9", got)
	}
	if got := averageLine(rowsOf(iscasgen.Table2()), iscasgen.PathDelay); !strings.HasSuffix(got, published(48.7, 52.1, 55.6, 58.6)) {
		t.Errorf("Table 2 Average line %q, want the paper's 48.7/52.1/55.6/58.6", got)
	}
	var subset []iscasgen.Meta
	for _, name := range []string{"s298", "s349"} {
		m, err := iscasgen.Find(name, iscasgen.StuckAt)
		if err != nil {
			t.Fatal(err)
		}
		subset = append(subset, m)
	}
	a, b := subset[0], subset[1]
	want := published((a.Paper9C+b.Paper9C)/2, (a.Paper9CHC+b.Paper9CHC)/2, (a.PaperEA+b.PaperEA)/2, (a.PaperEA2+b.PaperEA2)/2)
	got := averageLine(rowsOf(subset), iscasgen.StuckAt)
	if !strings.HasSuffix(got, want) || !strings.Contains(want, " 21.0%") {
		t.Errorf("s298+s349 Average line %q, want the two rows' published mean %q (9C 21.0%%)", got, want)
	}
}

func TestAveragesEmpty(t *testing.T) {
	a, b, c, d := Averages(nil)
	if a != 0 || b != 0 || c != 0 || d != 0 {
		t.Fatal("empty averages must be zero")
	}
}

func TestShapeCheckOnMeasuredSubset(t *testing.T) {
	// A small but diverse circuit subset must reproduce the paper's
	// qualitative ordering 9C <= 9C+HC < EA.
	c := smallConfig()
	c.Runs = 2
	c.Generations = 50
	c.NoImprove = 20
	c.Circuits = []string{"s349", "s298", "s444", "s386"}
	rows, err := RunTable1(c)
	if err != nil {
		t.Fatal(err)
	}
	if bad := ShapeCheck(rows); len(bad) != 0 {
		t.Fatalf("paper shape violated: %v\n%s", bad, Format(rows, iscasgen.StuckAt))
	}
}

func TestConfigs(t *testing.T) {
	q := QuickConfig(1)
	if q.Runs <= 0 || q.MaxBits <= 0 {
		t.Fatal("bad quick config")
	}
	f := FullConfig(1)
	if f.MaxBits != 0 || f.Runs != 5 || f.NoImprove != 500 {
		t.Fatal("full config must use the paper's parameters")
	}
}

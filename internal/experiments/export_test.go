package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseCSV reads back an emitted CSV and checks rectangularity.
func parseCSV(t *testing.T, data []byte) [][]string {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if len(rows) < 2 {
		t.Fatalf("CSV has no data rows")
	}
	for i, r := range rows {
		if len(r) != len(rows[0]) {
			t.Fatalf("row %d has %d fields, header has %d", i, len(r), len(rows[0]))
		}
	}
	return rows
}

func TestFig7CSV(t *testing.T) {
	r, err := RunFig7(context.Background(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.Bytes())
	wantPoints := 0
	for _, d := range r.Devices {
		wantPoints += len(d.Points)
	}
	if len(rows)-1 != wantPoints {
		t.Fatalf("CSV rows = %d, want %d", len(rows)-1, wantPoints)
	}
	// Values must be numeric.
	for _, row := range rows[1:] {
		for _, col := range []int{2, 3, 4, 5} {
			if _, err := strconv.ParseFloat(row[col], 64); err != nil {
				t.Fatalf("non-numeric field %q", row[col])
			}
		}
	}
}

func TestFig6CSV(t *testing.T) {
	r, err := RunFig6(context.Background(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.Bytes())
	if len(rows)-1 != 16+22 { // Titan X + Titan Xp ladders
		t.Fatalf("CSV rows = %d, want 38", len(rows)-1)
	}
}

func TestFig9CSV(t *testing.T) {
	r, err := RunFig9(context.Background(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.Bytes())
	if len(rows)-1 != 3*16 {
		t.Fatalf("CSV rows = %d, want 48", len(rows)-1)
	}
}

func TestExportAllCSVs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	paths, err := ExportAllCSVs(context.Background(), dir, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 10 {
		t.Fatalf("exported %d files, want 10", len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		parseCSV(t, data)
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 16 {
		t.Fatalf("registry has %d experiments, want >= 16", len(names))
	}
	// Paper order first.
	if names[0] != "table1" || names[3] != "fig2" {
		t.Fatalf("unexpected ordering: %v", names[:4])
	}
	all := AllNames()
	for _, n := range all {
		if n == "robustness" || n == "sources" {
			t.Fatalf("AllNames must exclude %q", n)
		}
	}
	var buf bytes.Buffer
	if err := RunByName(context.Background(), "table2", &buf, DefaultSeed, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("Maxwell")) {
		t.Fatal("table2 output missing content")
	}
	if err := RunByName(context.Background(), "nope", &buf, DefaultSeed, false); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestEveryTableRowRuns runs every row of the experiment table through
// RunByName with plotting on, and checks that each row marked for -csv or
// -report returns a result with that rendering. It runs at a seed no other
// test here uses (robustness also takes the four after it), so the shared
// rigs the shape tests read keep their noise streams.
func TestEveryTableRowRuns(t *testing.T) {
	const seed = 2018
	ctx := context.Background()
	for _, e := range table {
		var buf bytes.Buffer
		if err := RunByName(ctx, e.name, &buf, seed, true); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s wrote nothing", e.name)
		}
		if e.modes&(inCSV|inReport) == 0 {
			continue
		}
		r, err := e.run(ctx, seed)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if _, ok := r.(csvWriter); e.modes&inCSV != 0 && !ok {
			t.Errorf("%s is marked for -csv, but %T has no CSV rendering", e.name, r)
		}
		if _, ok := r.(markdowner); e.modes&inReport != 0 && !ok {
			t.Errorf("%s is marked for -report, but %T has no report section", e.name, r)
		}
		if _, ok := r.(Plotter); ok && !bytes.Contains(buf.Bytes(), []byte("legend:")) {
			t.Errorf("%s: -plot output carries no chart", e.name)
		}
	}
}

func TestRunByNameWithPlot(t *testing.T) {
	var buf bytes.Buffer
	if err := RunByName(context.Background(), "fig6", &buf, DefaultSeed, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("legend:")) {
		t.Fatalf("plot missing from output:\n%s", out[:200])
	}
}

func TestWriteReport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(context.Background(), &buf, DefaultSeed); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"# gpupower evaluation report",
		"## Validation accuracy (paper Fig. 7)",
		"Titan Xp", "GTX Titan X", "Tesla K40c",
		"## Baseline comparison",
		"## Ablations",
		"## Real-time governor",
		"## Estimator convergence",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
}

func TestPlots(t *testing.T) {
	fig2, err := RunFig2(context.Background(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := fig2.Plot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "fmem=3505") || !strings.Contains(s, "fmem=810") {
		t.Error("fig2 plot missing series legend")
	}
	fig7, err := RunFig7(context.Background(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	s, err = fig7.Plot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "MAE") || !strings.Contains(s, "ideal") {
		t.Error("fig7 plot missing annotations")
	}
	fig9, err := RunFig9(context.Background(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	s, err = fig9.Plot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "4096x4096") {
		t.Error("fig9 plot missing size legend")
	}
}

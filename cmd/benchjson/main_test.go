package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestCheckFitCeiling covers every ceilings row under, at and over its
// ceiling and missing from the output, with the other rows at theirs.
func TestCheckFitCeiling(t *testing.T) {
	other := BenchEntry{Name: "BenchmarkEstimateParallel/GTX_Titan_X", NsPerOp: 5e9}
	for i, c := range ceilings {
		// with returns every ceiling row at its ceiling, row i set to ns
		// (or dropped when ns < 0), plus an ungated row far above all.
		with := func(ns float64) []BenchEntry {
			entries := []BenchEntry{other}
			for j, cj := range ceilings {
				e := BenchEntry{Name: cj.row, NsPerOp: cj.maxNs}
				if j == i {
					if ns < 0 {
						continue
					}
					e.NsPerOp = ns
				}
				entries = append(entries, e)
			}
			return entries
		}
		cases := []struct {
			name    string
			entries []BenchEntry
			wantErr bool
		}{
			{"under", with(c.maxNs / 5), false},
			{"at", with(c.maxNs), false},
			{"over", with(c.maxNs * 1.2), true},
			{"missing", with(-1), true},
		}
		for _, tc := range cases {
			err := checkCeilings(tc.entries)
			if (err != nil) != tc.wantErr {
				t.Errorf("%s %s: checkCeilings = %v, want error %v", c.row, tc.name, err, tc.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), c.row) {
				t.Errorf("%s %s: error %q does not name the row", c.row, tc.name, err)
			}
		}
	}
	if err := checkCeilings(nil); err == nil {
		t.Error("checkCeilings accepted empty bench output")
	}
}

// TestParseBenchLine pins the line shapes `go test -bench -benchmem`
// prints: custom b.ReportMetric units sit between ns/op and B/op, and
// must neither hide the memory columns nor land in them.
func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line string
		want BenchEntry
		ok   bool
	}{
		{
			line: "BenchmarkPredict-8   \t1626286\t       729.7 ns/op\t     224 B/op\t       3 allocs/op",
			want: BenchEntry{Name: "BenchmarkPredict", Iterations: 1626286, NsPerOp: 729.7, BytesPerOp: 224, AllocsPerOp: 3},
			ok:   true,
		},
		{
			line: "BenchmarkClusterEvents-2 \t1\t1000 ns/op\t5 events/sec\t64 B/op\t3 allocs/op",
			want: BenchEntry{Name: "BenchmarkClusterEvents", Iterations: 1, NsPerOp: 1000, BytesPerOp: 64, AllocsPerOp: 3,
				Metrics: map[string]float64{"events/sec": 5}},
			ok: true,
		},
		{
			line: "BenchmarkFig7-2   1   5.2e+09 ns/op   12.4 MAE%/k40c   6.0 MAE%/titanx   6.9 MAE%/xp   1.5e+08 B/op   2e+06 allocs/op",
			want: BenchEntry{Name: "BenchmarkFig7", Iterations: 1, NsPerOp: 5.2e9, BytesPerOp: 1.5e8, AllocsPerOp: 2e6,
				Metrics: map[string]float64{"MAE%/k40c": 12.4, "MAE%/titanx": 6.0, "MAE%/xp": 6.9}},
			ok: true,
		},
		{
			line: "BenchmarkEstimateSerial/GTX_Titan_X-2   10   203e6 ns/op",
			want: BenchEntry{Name: "BenchmarkEstimateSerial/GTX_Titan_X", Iterations: 10, NsPerOp: 203e6},
			ok:   true,
		},
		{line: "BenchmarkFleetFit"},
		{line: "--- FAIL: BenchmarkServePredict"},
		{line: "BenchmarkServePredict-2   \t--- FAIL: status 500"},
		{line: "goos: linux"},
		{line: "pkg: gpupower/internal/cluster"},
		{line: "ok  \tgpupower\t12.3s"},
		{line: "PASS"},
		{line: ""},
	}
	for _, tc := range cases {
		got, ok := parseBenchLine(tc.line)
		if ok != tc.ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseBenchLine(%q) = %+v, %v; want %+v, %v", tc.line, got, ok, tc.want, tc.ok)
		}
	}
}

package main

import "testing"

func TestCheckFitCeiling(t *testing.T) {
	const ceilingMs = 1000
	other := BenchEntry{Name: "BenchmarkEstimateParallel/GTX_Titan_X", NsPerOp: 5e9}
	cases := []struct {
		name    string
		entries []BenchEntry
		wantErr bool
	}{
		{"under", []BenchEntry{other, {Name: fitGateRow, NsPerOp: 203e6}}, false},
		{"at", []BenchEntry{{Name: fitGateRow, NsPerOp: ceilingMs * 1e6}}, false},
		{"over", []BenchEntry{{Name: fitGateRow, NsPerOp: 1.2e9}}, true},
		{"missing", []BenchEntry{other}, true},
		{"no bench output", nil, true},
	}
	for _, tc := range cases {
		err := checkFitCeiling(tc.entries, ceilingMs)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: checkFitCeiling = %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}

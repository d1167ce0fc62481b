package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload briefly, untraced and traced, and
// checks the result line: every check passed and exactly the declared
// metrics are reported, with their units.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a few seconds")
	}
	for _, w := range []string{"fit", "serve", "cluster"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				spans := filepath.Join(t.TempDir(), "spans.jsonl")
				args := []string{"--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace, "--spans", spans}
				if err := run(args, &out); err != nil {
					t.Fatalf("run %v: %v\n%s", args, err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
					if _, err := os.Stat(spans); err != nil {
						t.Errorf("traced run wrote no spans: %v", err)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
			})
		}
	}
}

func TestCheckMeasured(t *testing.T) {
	defs := []metricDef{{"a", "ms", inFit}, {"b", "ms", inServe}, {"c", "ms", inAll}}
	for _, c := range []struct {
		vals     map[string]float64
		complete bool
		ok       bool
	}{
		{map[string]float64{"a": 1, "c": 0}, true, true},
		{map[string]float64{"c": 2}, false, true},
		{map[string]float64{"c": 2}, true, false},                  // a is missing
		{map[string]float64{"a": 1, "c": 2, "b": 3}, false, false}, // b is serve's
		{map[string]float64{"a": 1, "c": 2, "d": 4}, false, false}, // d is undeclared
	} {
		err := checkMeasured(defs, c.vals, inFit, c.complete)
		if (err == nil) != c.ok {
			t.Errorf("checkMeasured(%v, complete=%v) = %v, want ok=%v", c.vals, c.complete, err, c.ok)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fit", "--seconds", "0"},
		{"--workload", "fit", "--trace", "2"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run %v succeeded", args)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		program  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.program) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.declared), len(c.program))
			continue
		}
		for i, d := range c.declared {
			if d.Name != c.program[i].name || d.Unit != c.program[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					c.kind, i, d.Name, d.Unit, c.program[i].name, c.program[i].unit)
			}
		}
	}
}

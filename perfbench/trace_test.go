package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		// Overlapping children cover 10..50 once.
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},
		// A child running past its parent counts up to the parent's end.
		{Name: "c", Start: 90, End: 120, Parent: 0},
		// A grandchild is charged to its own parent only.
		{Name: "d", Start: 22, End: 28, Parent: 2},
		{Name: "other", Start: 0, End: 40, Parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{50, 20, 24, 30, 6, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	byName := selfByName(spans)
	if v := byName["op"]; len(v) != 1 || v[0] != 50e-6 {
		t.Errorf("selfByName[op] = %v, want [5e-05] ms", v)
	}
	if v := durationsByName(spans)["c"]; len(v) != 1 || v[0] != 30e-6 {
		t.Errorf("durationsByName[c] = %v, want [3e-05] ms", v)
	}
}

func TestTracer(t *testing.T) {
	off := newTracer(false)
	if i := off.begin("x", -1, 0); i != -1 {
		t.Errorf("an off tracer handed out span %d", i)
	}
	off.end(-1)
	off.add("y", -1, 0, 1, 2)
	if len(off.spans) != 0 {
		t.Errorf("an off tracer recorded %d spans", len(off.spans))
	}

	on := newTracer(true)
	root := on.begin("root", -1, 7)
	child := on.begin("child", root, 7)
	on.end(child)
	on.end(root)
	on.add("measured", root, 7, on.spans[child].Start, on.spans[child].End)
	if len(on.spans) != 3 || on.spans[child].Parent != root || on.spans[root].End < on.spans[child].End {
		t.Fatalf("spans = %+v", on.spans)
	}

	path := filepath.Join(t.TempDir(), "spans", "x.jsonl")
	if err := on.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var read []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		read = append(read, s)
	}
	if len(read) != len(on.spans) {
		t.Fatalf("read %d spans back, wrote %d", len(read), len(on.spans))
	}
	for i := range read {
		if read[i] != on.spans[i] {
			t.Errorf("span %d read back as %+v, wrote %+v", i, read[i], on.spans[i])
		}
	}
}

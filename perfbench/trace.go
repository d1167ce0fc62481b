package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent indexes
// the enclosing span in the tracer (-1 for a root); Op numbers the
// benchmark operation the span belongs to, shared by all its spans.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory for the length of a run. A tracer that is
// off records nothing, and begin hands out -1, which end ignores, so the
// untraced path costs one branch per call site. Only the benchmark's own
// goroutine records spans.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its handle.
func (t *tracer) begin(name string, parent int, op int64) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// add records a span whose start and end, as offsets from the tracer's
// start, the caller measured itself.
func (t *tracer) add(name string, parent int, op, start, end int64) {
	if t.on {
		t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	}
}

// now is the current offset from the tracer's start.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// selfTimes returns, for every span, its duration minus the part of it
// that its direct children cover. Overlapping children (a layer that fans
// out) count the covered interval once, and a child running past its
// parent counts only up to the parent's end.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName groups the self times of the closed spans by span name, in
// milliseconds.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		if s.End >= s.Start {
			out[s.Name] = append(out[s.Name], float64(self[i])/1e6)
		}
	}
	return out
}

// durationsByName groups the durations of the closed spans by span name,
// in milliseconds.
func durationsByName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		if s.End >= s.Start {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines, one span per line, in the order
// they began.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

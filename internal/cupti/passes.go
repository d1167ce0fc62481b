package cupti

import (
	"fmt"
	"sort"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
)

// Real CUPTI cannot read arbitrarily many counters in one kernel launch:
// the hardware exposes a small number of counter registers, so profilers
// partition the requested events into *passes* and replay the kernel once
// per pass (the paper's methodology note that kernels are executed
// repeatedly covers this too). The pass machinery below reproduces that
// behaviour: Collector.Collect replays the kernel once per pass and each
// pass reads only its own events.

// maxEventsPerPass returns how many events one replay can collect on an
// architecture (Kepler's counter file is the smallest).
func maxEventsPerPass(a hw.Arch) int {
	switch a {
	case hw.Kepler:
		return 4
	default:
		return 6
	}
}

// Passes partitions the event table into replay passes of at most
// maxEventsPerPass(arch) events. Events backing the same metric are kept in
// the same pass when they fit (they must be read coherently to aggregate),
// and the partition is deterministic: metrics are scheduled in
// backend.AllMetrics order.
func Passes(table EventTable, arch hw.Arch) ([][]Event, error) {
	limit := maxEventsPerPass(arch)
	var passes [][]Event
	var current []Event
	for _, m := range backend.AllMetrics {
		evs := table[m]
		if len(evs) > limit {
			return nil, fmt.Errorf("cupti: metric %s needs %d events, above the %d-per-pass limit",
				m, len(evs), limit)
		}
		if len(current)+len(evs) > limit {
			passes = append(passes, current)
			current = nil
		}
		current = append(current, evs...)
	}
	if len(current) > 0 {
		passes = append(passes, current)
	}
	return passes, nil
}

// validatePasses checks the structural invariants of a pass schedule:
// every event appears exactly once and no pass exceeds the register budget.
func validatePasses(passes [][]Event, table EventTable, arch hw.Arch) error {
	limit := maxEventsPerPass(arch)
	seen := map[EventID]int{}
	for pi, pass := range passes {
		if len(pass) == 0 {
			return fmt.Errorf("cupti: pass %d is empty", pi)
		}
		if len(pass) > limit {
			return fmt.Errorf("cupti: pass %d holds %d events, limit %d", pi, len(pass), limit)
		}
		for _, e := range pass {
			seen[e.ID]++
		}
	}
	var all []EventID
	for _, m := range backend.AllMetrics {
		for _, e := range table[m] {
			all = append(all, e.ID)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, id := range all {
		if seen[id] != 1 {
			return fmt.Errorf("cupti: event %d scheduled %d times", id, seen[id])
		}
	}
	return nil
}

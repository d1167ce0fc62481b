// Package cupti is the simulator's event-collection layer, mirroring the
// CUPTI interface the paper uses. It reproduces the paper's Table I: each
// device exposes a mix of publicly named events and undisclosed numeric
// event IDs (the "W###" identifiers, whose prefixes are 352321 for Titan
// Xp, 335544 for GTX Titan X and 318767 for Tesla K40c), aggregated into
// the metrics named in internal/backend. Event readings carry per-die
// systematic error — substantially larger on the Kepler device, which is
// where the paper's higher K40c model error comes from. The simulated
// device (internal/sim) owns one Collector and drives its kernel replays;
// this package does not know the device.
package cupti

import (
	"fmt"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
)

// EventID identifies one hardware performance event.
type EventID uint64

// Event is one collectable performance event. Disclosed events carry a
// CUPTI name; undisclosed ones only a numeric ID (Name == "").
type Event struct {
	ID   EventID
	Name string
}

// Disclosed reports whether NVIDIA documents the event.
func (e Event) Disclosed() bool { return e.Name != "" }

func (e Event) String() string {
	if e.Disclosed() {
		return e.Name
	}
	return fmt.Sprintf("event_%d", e.ID)
}

// EventTable maps each Table I metric (backend.AllMetrics) to the events
// whose values must be aggregated (summed) to produce it — the paper's
// "aggregation step" for metrics that depend on multiple events (e.g.
// ABandDRAM uses 4).
type EventTable map[string][]Event

// undisclosed builds the numeric ID for a "W suffix" event of Table I:
// prefix·1000 + suffix.
func undisclosed(prefix, suffix uint64) Event {
	return Event{ID: EventID(prefix*1000 + suffix)}
}

// named gives disclosed events deterministic IDs in a reserved low range so
// Counters can be keyed uniformly by EventID.
func named(id uint64, name string) Event { return Event{ID: EventID(id), Name: name} }

// Table reproduces the paper's Table I for one of the catalog devices.
func Table(dev *hw.Device) (EventTable, error) {
	switch dev.Name {
	case "Titan Xp":
		return buildTable(devTitanXp), nil
	case "GTX Titan X":
		return buildTable(devTitanX), nil
	case "Tesla K40c":
		return buildTable(devK40c), nil
	default:
		return nil, fmt.Errorf("cupti: no event table for device %q", dev.Name)
	}
}

type deviceID int

const (
	devTitanXp deviceID = iota
	devTitanX
	devK40c
)

// wPrefix returns the undisclosed-event ID prefix of Table I's footnote.
func wPrefix(d deviceID) uint64 {
	switch d {
	case devTitanXp:
		return 352321
	case devTitanX:
		return 335544
	default:
		return 318767
	}
}

func buildTable(d deviceID) EventTable {
	p := wPrefix(d)
	t := EventTable{}

	t[backend.MetricACycles] = []Event{named(1, "active_cycles")}

	// L2 sector queries: 2 subpartitions on the Titans, 4 on the K40c.
	nL2 := 2
	l2Name := "l2_subp%d_total_read_sector_queries"
	l2WName := "l2_subp%d_total_write_sector_queries"
	if d == devK40c {
		nL2 = 4
	}
	for i := 0; i < nL2; i++ {
		t[backend.MetricL2Read] = append(t[backend.MetricL2Read], named(uint64(10+i), fmt.Sprintf(l2Name, i)))
		t[backend.MetricL2Write] = append(t[backend.MetricL2Write], named(uint64(20+i), fmt.Sprintf(l2WName, i)))
	}

	// Shared-memory transactions; the Kepler events live under the L1 name.
	if d == devK40c {
		t[backend.MetricSharedLoad] = []Event{named(30, "l1_shared_ld_transactions")}
		t[backend.MetricSharedStore] = []Event{named(31, "l1_shared_st_transactions")}
	} else {
		t[backend.MetricSharedLoad] = []Event{named(30, "shared_ld_transactions")}
		t[backend.MetricSharedStore] = []Event{named(31, "shared_st_transactions")}
	}

	// Frame-buffer (DRAM) sectors: 2 subpartitions on all three devices.
	for i := 0; i < 2; i++ {
		t[backend.MetricDRAMRead] = append(t[backend.MetricDRAMRead], named(uint64(40+i), fmt.Sprintf("fb_subp%d_read_sectors", i)))
		t[backend.MetricDRAMWrite] = append(t[backend.MetricDRAMWrite], named(uint64(50+i), fmt.Sprintf("fb_subp%d_write_sectors", i)))
	}

	// Undisclosed warp/instruction events (numeric IDs from Table I).
	switch d {
	case devTitanXp:
		t[backend.MetricWarpsSPInt] = []Event{undisclosed(p, 580), undisclosed(p, 581)}
		t[backend.MetricWarpsDP] = []Event{undisclosed(p, 584)}
		t[backend.MetricWarpsSF] = []Event{undisclosed(p, 560)}
		t[backend.MetricInstInt] = []Event{undisclosed(p, 831)}
		t[backend.MetricInstSP] = []Event{undisclosed(p, 829)}
	case devTitanX:
		t[backend.MetricWarpsSPInt] = []Event{undisclosed(p, 361), undisclosed(p, 362)}
		t[backend.MetricWarpsDP] = []Event{undisclosed(p, 364)}
		t[backend.MetricWarpsSF] = []Event{undisclosed(p, 359)}
		t[backend.MetricInstInt] = []Event{undisclosed(p, 504)}
		t[backend.MetricInstSP] = []Event{undisclosed(p, 502)}
	case devK40c:
		t[backend.MetricWarpsSPInt] = []Event{
			undisclosed(p, 131), undisclosed(p, 134),
			undisclosed(p, 136), undisclosed(p, 137),
		}
		t[backend.MetricWarpsDP] = []Event{undisclosed(p, 141)}
		t[backend.MetricWarpsSF] = []Event{undisclosed(p, 133)}
		t[backend.MetricInstInt] = []Event{undisclosed(p, 205)}
		t[backend.MetricInstSP] = []Event{undisclosed(p, 203)}
	}
	return t
}

// Counters holds collected event values keyed by event ID.
type Counters map[EventID]float64

// Aggregate sums the counters of all events behind a metric — the paper's
// aggregation step.
func (t EventTable) Aggregate(c Counters, m string) (float64, error) {
	evs, ok := t[m]
	if !ok {
		return 0, fmt.Errorf("cupti: metric %q not in event table", m)
	}
	var s float64
	for _, e := range evs {
		v, ok := c[e.ID]
		if !ok {
			return 0, fmt.Errorf("cupti: counters missing event %v for metric %q", e, m)
		}
		s += v
	}
	return s, nil
}

package hw

import (
	"fmt"
	"sync"
	"time"
)

// Arch names an NVIDIA microarchitecture generation.
type Arch string

// The three microarchitectures validated in the paper.
const (
	Pascal  Arch = "Pascal"
	Maxwell Arch = "Maxwell"
	Kepler  Arch = "Kepler"
)

// Device is the static description of a GPU (paper Table II). All frequencies
// are MHz. A Device is immutable reference data; runtime state (current
// clocks, sensors) lives in the simulator.
type Device struct {
	Name              string
	Arch              Arch
	ComputeCapability string

	NumSMs   int
	WarpSize int

	// UnitsPerSM gives execution units of each type per SM. SP and INT share
	// the same physical count on the modelled devices (Table II "SP/INT").
	UnitsPerSM map[Component]int

	// MemBusBytes is the device-memory bus width in bytes transferred per
	// memory-domain cycle (Table II: 48 B for all three devices).
	MemBusBytes int

	// SharedBanks is the number of shared-memory banks per SM; each bank
	// moves 4 bytes per core cycle.
	SharedBanks int

	// L2BytesPerCycle is the aggregate L2 sector bandwidth in bytes per core
	// cycle. The paper determines this experimentally (Section III-C); the
	// value here is the device datum the microbenchmarks will rediscover.
	L2BytesPerCycle float64

	// CoreFreqs and MemFreqs are the supported application-clock ladders,
	// ascending MHz.
	CoreFreqs []float64
	MemFreqs  []float64

	DefaultCore float64
	DefaultMem  float64

	TDP float64 // thermal design power, W

	// SensorRefresh is the NVML power-reading refresh period observed in the
	// paper's Section V-A (35 ms Titan Xp, 100 ms GTX Titan X, 15 ms K40c).
	SensorRefresh time.Duration

	// ladderOnce guards the memoized V-F enumeration below. The ladders are
	// immutable once a Device is published, so the enumeration and its index
	// are computed at most once per instance and shared read-only by every
	// hot path (prediction surfaces, the serving ladder walk, the cluster
	// simulator's decision tables).
	ladderOnce sync.Once
	ladder     []Config
	ladderIdx  map[Config]int
}

// Validate checks internal consistency of the device description.
func (d *Device) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("hw: device has empty name")
	}
	if d.NumSMs <= 0 || d.WarpSize <= 0 {
		return fmt.Errorf("hw: %s: SMs=%d warp=%d must be positive", d.Name, d.NumSMs, d.WarpSize)
	}
	for _, c := range ComputeUnits {
		if d.UnitsPerSM[c] <= 0 {
			return fmt.Errorf("hw: %s: missing UnitsPerSM for %s", d.Name, c)
		}
	}
	if d.MemBusBytes <= 0 || d.SharedBanks <= 0 || d.L2BytesPerCycle <= 0 {
		return fmt.Errorf("hw: %s: memory geometry not positive", d.Name)
	}
	if len(d.CoreFreqs) == 0 || len(d.MemFreqs) == 0 {
		return fmt.Errorf("hw: %s: empty frequency ladder", d.Name)
	}
	if !ascending(d.CoreFreqs) || !ascending(d.MemFreqs) {
		return fmt.Errorf("hw: %s: frequency ladders must be strictly ascending", d.Name)
	}
	if !contains(d.CoreFreqs, d.DefaultCore) {
		return fmt.Errorf("hw: %s: default core %g MHz not in ladder", d.Name, d.DefaultCore)
	}
	if !contains(d.MemFreqs, d.DefaultMem) {
		return fmt.Errorf("hw: %s: default mem %g MHz not in ladder", d.Name, d.DefaultMem)
	}
	if d.TDP <= 0 {
		return fmt.Errorf("hw: %s: TDP must be positive", d.Name)
	}
	if d.SensorRefresh <= 0 {
		return fmt.Errorf("hw: %s: sensor refresh must be positive", d.Name)
	}
	return nil
}

func ascending(v []float64) bool {
	for i := 1; i < len(v); i++ {
		if v[i] <= v[i-1] {
			return false
		}
	}
	return true
}

func contains(v []float64, x float64) bool {
	for _, y := range v {
		if y == x { //lint:ignore floateq ladder membership: catalog frequencies are exact constants, so only bitwise equality means "same level"
			return true
		}
	}
	return false
}

// SupportsCoreFreq reports whether f is a valid core application clock.
func (d *Device) SupportsCoreFreq(f float64) bool { return contains(d.CoreFreqs, f) }

// SupportsMemFreq reports whether f is a valid memory application clock.
func (d *Device) SupportsMemFreq(f float64) bool { return contains(d.MemFreqs, f) }

// Config is one (core, memory) frequency configuration in MHz.
type Config struct {
	CoreMHz float64
	MemMHz  float64
}

// String renders the configuration. %g prints a ladder frequency as the
// integer it is and keeps an absurd request (1e308 MHz) short when an error
// message echoes it.
func (c Config) String() string {
	return fmt.Sprintf("(fcore=%gMHz, fmem=%gMHz)", c.CoreMHz, c.MemMHz)
}

// DefaultConfig returns the device's default (reference) configuration.
func (d *Device) DefaultConfig() Config {
	return Config{CoreMHz: d.DefaultCore, MemMHz: d.DefaultMem}
}

// AllConfigs enumerates the full V-F configuration space of the device,
// memory-major then core-ascending.
func (d *Device) AllConfigs() []Config {
	out := make([]Config, 0, len(d.CoreFreqs)*len(d.MemFreqs))
	for _, fm := range d.MemFreqs {
		for _, fc := range d.CoreFreqs {
			out = append(out, Config{CoreMHz: fc, MemMHz: fm})
		}
	}
	return out
}

// NumConfigs returns the size of the configuration space.
func (d *Device) NumConfigs() int { return len(d.CoreFreqs) * len(d.MemFreqs) }

// Ladder returns the memoized V-F enumeration in AllConfigs order. Unlike
// AllConfigs it does not copy: the returned slice is shared and must be
// treated as read-only. Hot paths that walk the ladder per call (cold
// prediction surfaces, per-request serving sweeps) use it to stay
// allocation-free.
func (d *Device) Ladder() []Config {
	//gpower:allocs once-only ladder memoization behind sync.Once; the steady state is two field reads
	d.initLadder()
	return d.ladder
}

// LadderIndex returns cfg's position in Ladder(), or false when cfg is not
// a ladder configuration of the device.
func (d *Device) LadderIndex(cfg Config) (int, bool) {
	//gpower:allocs once-only ladder memoization behind sync.Once; the steady state is one map read
	d.initLadder()
	i, ok := d.ladderIdx[cfg]
	return i, ok
}

func (d *Device) initLadder() {
	d.ladderOnce.Do(func() {
		d.ladder = d.AllConfigs()
		d.ladderIdx = make(map[Config]int, len(d.ladder))
		for i, c := range d.ladder {
			d.ladderIdx[c] = i
		}
	})
}

// PeakComputeWarpsPerSec returns the peak warp-issue throughput of unit c in
// warps/second at core frequency fc (MHz): units-per-SM × SMs / warp-size
// warps per cycle. The Eq. 8 utilization denominator derives from it.
func (d *Device) PeakComputeWarpsPerSec(c Component, fcMHz float64) float64 {
	return fcMHz * 1e6 * float64(d.UnitsPerSM[c]) * float64(d.NumSMs) / float64(d.WarpSize)
}

// PeakDRAMBandwidth returns the peak DRAM bandwidth in bytes/second at memory
// frequency fm (MHz): PeakBand = f · Bytes/Cycle (paper Section III-C).
func (d *Device) PeakDRAMBandwidth(fmMHz float64) float64 {
	return fmMHz * 1e6 * float64(d.MemBusBytes)
}

// PeakSharedBandwidth returns the aggregate shared-memory bandwidth in
// bytes/second at core frequency fc (MHz): banks × 4 B per SM per cycle.
func (d *Device) PeakSharedBandwidth(fcMHz float64) float64 {
	return fcMHz * 1e6 * float64(d.SharedBanks) * 4 * float64(d.NumSMs)
}

// PeakL2Bandwidth returns the aggregate L2 bandwidth in bytes/second at core
// frequency fc (MHz), from the device's (experimentally discoverable)
// bytes-per-cycle figure.
func (d *Device) PeakL2Bandwidth(fcMHz float64) float64 {
	return fcMHz * 1e6 * d.L2BytesPerCycle
}

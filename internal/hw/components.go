// Package hw describes the modelled GPU hardware: architectural components,
// voltage-frequency domains, and the three devices of the paper's Table II
// (NVIDIA Titan Xp, GTX Titan X and Tesla K40c).
package hw

import "fmt"

// Component identifies one of the seven GPU components whose utilization the
// model tracks (paper Section III-B).
type Component int

const (
	Int    Component = iota // integer units
	SP                      // single-precision floating-point units
	DP                      // double-precision floating-point units
	SF                      // special-function units
	Shared                  // shared memory
	L2                      // L2 cache
	DRAM                    // device memory
	numComponents
)

// Components lists all modelled components in canonical order.
var Components = []Component{Int, SP, DP, SF, Shared, L2, DRAM}

// ComputeUnits lists the SM execution-unit components (Eq. 8 utilizations).
var ComputeUnits = []Component{Int, SP, DP, SF}

// CoreComponents lists the components clocked by the core (graphics) domain.
// The paper places the L2 cache (and shared memory) in the core domain.
var CoreComponents = []Component{Int, SP, DP, SF, Shared, L2}

func (c Component) String() string {
	switch c {
	case Int:
		return "INT"
	case SP:
		return "SP"
	case DP:
		return "DP"
	case SF:
		return "SF"
	case Shared:
		return "Shared"
	case L2:
		return "L2"
	case DRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// Valid reports whether c is one of the modelled components.
func (c Component) Valid() bool { return c >= 0 && c < numComponents }

// SumComponents folds a per-component float map in canonical component
// order. Go randomizes map iteration order and float addition is not
// associative, so a naive range-over-map sum is not bitwise-reproducible
// across runs; every power/work total in the module folds through this
// helper instead (the maporder lint invariant). Keys outside the modelled
// set — which Valid-checked inputs never contain — are ignored.
func SumComponents(m map[Component]float64) float64 {
	var s float64
	for _, c := range Components {
		if v, ok := m[c]; ok {
			s += v
		}
	}
	return s
}

// Domain identifies an independent voltage-frequency domain (paper Eq. 3:
// modern NVIDIA GPUs expose N_V-F = 2 domains).
type Domain int

const (
	CoreDomain Domain = iota
	MemoryDomain
	numDomains
)

// Domains lists both V-F domains in canonical order.
var Domains = []Domain{CoreDomain, MemoryDomain}

func (d Domain) String() string {
	switch d {
	case CoreDomain:
		return "core"
	case MemoryDomain:
		return "memory"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// DomainOf returns the V-F domain that clocks component c.
func DomainOf(c Component) Domain {
	if c == DRAM {
		return MemoryDomain
	}
	return CoreDomain
}

package silicon

import (
	"fmt"

	"gpupower/internal/hw"
)

// The per-die ground truths below are calibrated so the simulated devices
// reproduce the operating points the paper reports:
//
//   GTX Titan X — ~84 W constant power at the (975, 3505) default (Fig. 5),
//   dropping to ~50 W at f_mem = 810 MHz (Fig. 10); BlackScholes ≈ 181 W and
//   CUTCP ≈ 135 W at the default configuration (Fig. 2); core voltage flat
//   below ≈750 MHz then rising to ≈1.15·Vref at 1164 MHz (Fig. 6a).
//
//   Titan Xp — V̄core from ≈0.8 at 582 MHz to ≈1.35 at 1911 MHz (Fig. 6b).
//
//   Tesla K40c — mild voltage scaling over its narrow 4-level ladder; its
//   larger model error in the paper comes from event inaccuracy, which the
//   simulator's cupti layer reproduces.
//
// The kappa/unmodelled terms keep the truth outside the fitted model family.

// TruthFor returns the hidden ground truth for one of the catalog devices.
func TruthFor(dev *hw.Device) (*Truth, error) {
	var t *Truth
	switch dev.Name {
	case "Titan Xp":
		t = &Truth{
			Device:         dev,
			StaticCore:     14.0,
			StaticMem:      8.0,
			IdlePerCoreMHz: 0.0121,  // ≈17 W at 1404 MHz
			IdlePerMemMHz:  0.00701, // ≈40 W at 5705 MHz
			Gamma: map[hw.Component]float64{
				hw.Int:    0.0175,
				hw.SP:     0.0210,
				hw.DP:     0.0140,
				hw.SF:     0.0315,
				hw.Shared: 0.0140,
				hw.L2:     0.0210,
				hw.DRAM:   0.0205,
			},
			CoreV: MustVoltageCurve(
				VoltagePoint{FMHz: 582, Volts: 0.800},
				VoltagePoint{FMHz: 835, Volts: 0.800},
				VoltagePoint{FMHz: 1404, Volts: 1.000},
				VoltagePoint{FMHz: 1911, Volts: 1.350},
			),
			MemV: MustVoltageCurve(
				VoltagePoint{FMHz: 4705, Volts: 1.35},
				VoltagePoint{FMHz: 5705, Volts: 1.35},
			),
			LeakageKappa:     0.12,
			UnmodelledPerMHz: 0.0062,
		}
	case "GTX Titan X":
		t = &Truth{
			Device:         dev,
			StaticCore:     15.0,
			StaticMem:      8.0,
			IdlePerCoreMHz: 0.01723, // ≈16.8 W at 975 MHz
			IdlePerMemMHz:  0.01262, // ≈44.2 W at 3505 MHz
			Gamma: map[hw.Component]float64{
				hw.Int:    0.0250,
				hw.SP:     0.0300,
				hw.DP:     0.0200,
				hw.SF:     0.0450,
				hw.Shared: 0.0200,
				hw.L2:     0.0300,
				hw.DRAM:   0.0334,
			},
			CoreV: MustVoltageCurve(
				VoltagePoint{FMHz: 595, Volts: 0.900},
				VoltagePoint{FMHz: 747, Volts: 0.900},
				VoltagePoint{FMHz: 975, Volts: 1.000},
				VoltagePoint{FMHz: 1164, Volts: 1.150},
			),
			MemV: MustVoltageCurve(
				VoltagePoint{FMHz: 810, Volts: 1.35},
				VoltagePoint{FMHz: 4005, Volts: 1.35},
			),
			LeakageKappa:     0.12,
			UnmodelledPerMHz: 0.0070,
		}
	case "Tesla K40c":
		t = &Truth{
			Device:         dev,
			StaticCore:     18.0,
			StaticMem:      10.0,
			IdlePerCoreMHz: 0.01714, // ≈15 W at 875 MHz
			IdlePerMemMHz:  0.00999, // ≈30 W at 3004 MHz
			Gamma: map[hw.Component]float64{
				hw.Int:    0.0300,
				hw.SP:     0.0360,
				hw.DP:     0.0550,
				hw.SF:     0.0500,
				hw.Shared: 0.0240,
				hw.L2:     0.0340,
				hw.DRAM:   0.0300,
			},
			CoreV: MustVoltageCurve(
				VoltagePoint{FMHz: 666, Volts: 0.95},
				VoltagePoint{FMHz: 745, Volts: 0.95},
				VoltagePoint{FMHz: 875, Volts: 1.00},
			),
			MemV: MustVoltageCurve(
				VoltagePoint{FMHz: 3004, Volts: 1.50},
			),
			LeakageKappa:     0.15,
			UnmodelledPerMHz: 0.0060,
		}
	default:
		return nil, fmt.Errorf("silicon: no ground truth for device %q", dev.Name)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustTruthFor is TruthFor that panics on error; for tests and the static
// experiment drivers operating on catalog devices.
func MustTruthFor(dev *hw.Device) *Truth {
	t, err := TruthFor(dev)
	if err != nil {
		panic(err)
	}
	return t
}

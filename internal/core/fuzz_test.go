package core

import (
	"math"
	"testing"

	"gpupower/internal/hw"
)

// Fuzz targets run their seed corpus under plain `go test` and can be
// explored further with `go test -fuzz=FuzzModelUnmarshal ./internal/core`.

func FuzzModelUnmarshal(f *testing.F) {
	// Seed with a valid model and a few corruptions.
	m := referenceModel()
	valid, err := m.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"omega_core":[1,2,3]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"device":"x","beta":[-1,0,0,0]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var back Model
		if err := back.UnmarshalJSON(data); err != nil {
			return // rejection is fine; panics are not
		}
		// Anything accepted must be a valid model that can predict.
		if err := back.Validate(); err != nil {
			t.Fatalf("accepted model fails validation: %v", err)
		}
		cfg := hw.Config{CoreMHz: back.Voltages.CoreFreqs[0], MemMHz: back.Voltages.MemFreqs[0]}
		if _, err := back.Predict(Utilization{hw.SP: 0.5}, cfg); err != nil {
			t.Fatalf("accepted model cannot predict: %v", err)
		}
	})
}

func FuzzUtilizationFromMetrics(f *testing.F) {
	f.Add(1e6, 1e5, 1e5, 1e4, 1e3, 1e3, 768.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(-1.0, 1e300, -5.0, 1.0, 2.0, 3.0, 512.0)
	// A NaN counter, and an infinite SP instruction count whose INT/SP split
	// is Inf/Inf: both used to come back as NaN rates with no error.
	f.Add(1e6, math.NaN(), 1e5, 1e4, 1e3, 1e3, 768.0)
	f.Add(1e6, 1e5, math.Inf(1), 1e4, 1e3, 1e3, 768.0)
	f.Add(math.NaN(), 1e5, 1e5, 1e4, 1e3, 1e3, 768.0)
	f.Add(1e6, 1e5, 1e5, 1e4, 1e3, 1e3, math.Inf(1))

	dev := hw.GTXTitanX()
	ref := dev.DefaultConfig()
	f.Fuzz(func(t *testing.T, aCycles, warps, instSP, sectors, trans, dp, l2bpc float64) {
		m := syntheticMetrics(aCycles)
		m["AWarpsSP/INT"] = warps
		m["InstSP"] = instSP
		m["ABandDRAM.read"] = sectors
		m["ABandShared.load"] = trans
		m["AWarpsDP"] = dp
		u, err := UtilizationFromMetrics(dev, ref, m, l2bpc)
		if err != nil {
			return
		}
		// Accepted inputs must produce valid utilizations (never NaN/out of
		// range), whatever garbage the counters held.
		if err := u.Validate(); err != nil {
			t.Fatalf("accepted metrics produced invalid utilization: %v", err)
		}
	})
}

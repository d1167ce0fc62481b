package gpupower_test

import (
	"bytes"
	"context"
	"os"
	"testing"

	"gpupower/internal/experiments"
)

// catalogGoldens maps each catalog device to its committed seed-42 model.
// The K40c entry is the trace golden's model: the live fit and the fit
// replayed from the recorded trace are the same bytes.
var catalogGoldens = []struct{ device, path string }{
	{"Titan Xp", "testdata/titan-xp-fit-model.json"},
	{"GTX Titan X", "testdata/gtx-titan-x-fit-model.json"},
	{"Tesla K40c", goldenModelPath},
}

// TestGoldenCatalogFits pins the seed-42 fits of the three catalog devices
// byte-for-byte: Titan Xp (22×2 ladder), GTX Titan X (16×4) and Tesla K40c
// (4×1). The trace golden alone covers only the K40c's four
// configurations; the large ladders are where the Section III-D
// alternation runs longest, so a solver change that moves one bit of a
// coefficient or voltage shows here. Regenerate after an intentional
// methodology change with:
//
//	go test -run TestGoldenCatalogFits -update .
func TestGoldenCatalogFits(t *testing.T) {
	names := make([]string, len(catalogGoldens))
	for i, g := range catalogGoldens {
		names[i] = g.device
	}
	rigs, err := experiments.SharedRigs(context.Background(), names, experiments.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range catalogGoldens {
		m, err := rigs[i].Model(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := modelBytes(t, m)
		if *updateGolden {
			if err := os.WriteFile(g.path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("regenerated %s", g.path)
			continue
		}
		want, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: seed-%d fit diverged from %s\n"+
				"(intentional change? regenerate with: go test -run TestGoldenCatalogFits -update .)",
				g.device, experiments.DefaultSeed, g.path)
		}
	}
}

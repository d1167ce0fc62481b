package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gpupower/internal/core"
	"gpupower/internal/governor"
	"gpupower/internal/hw"
	"gpupower/internal/registry"
)

// testModel builds a synthetic fitted model for dev; beta0 perturbs the
// core static coefficient so two models are distinguishable everywhere.
func testModel(t *testing.T, dev *hw.Device, beta0 float64) *core.Model {
	t.Helper()
	m := &core.Model{
		DeviceName: dev.Name,
		Ref:        dev.DefaultConfig(),
		Beta:       [4]float64{beta0, 0.02, 10, 0.002},
		OmegaCore: map[hw.Component]float64{
			hw.Int: 0.011, hw.SP: 0.013, hw.DP: 0.017,
			hw.SF: 0.007, hw.Shared: 0.005, hw.L2: 0.009,
		},
		OmegaMem:        0.004,
		Voltages:        core.NewVoltageTable(dev.CoreFreqs, dev.MemFreqs),
		L2BytesPerCycle: dev.L2BytesPerCycle,
		Iterations:      3,
		Converged:       true,
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("synthetic model invalid: %v", err)
	}
	return m
}

// newTestServer serves one synthetic Tesla K40c entry.
func newTestServer(t *testing.T, opts *Options) (*httptest.Server, *registry.Entry, *core.Model) {
	t.Helper()
	dev := hw.TeslaK40c()
	m := testModel(t, dev, 40)
	e, err := registry.NewEntry("Tesla K40c", dev, nil, nil, m, registry.FitMeta{Source: "test"})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	if err := reg.Add(e); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, opts))
	t.Cleanup(ts.Close)
	return ts, e, m
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status  string `json:"status"`
		Devices int    `json:"devices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || out.Status != "ok" || out.Devices != 1 {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, out)
	}
}

func TestDevices(t *testing.T) {
	ts, e, m := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Devices []struct {
			Name       string  `json:"name"`
			Arch       string  `json:"arch"`
			TDPWatts   float64 `json:"tdp_watts"`
			NumConfigs int     `json:"num_configs"`
			Generation uint64  `json:"generation"`
			Source     string  `json:"source"`
		} `json:"devices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Devices) != 1 {
		t.Fatalf("got %d devices", len(out.Devices))
	}
	d := out.Devices[0]
	if d.Name != e.Name() || d.Arch != "Kepler" || d.NumConfigs != 4 || d.Source != "test" {
		t.Fatalf("device listing wrong: %+v", d)
	}
	if d.Generation != m.Generation() {
		t.Fatalf("generation %d, want %d", d.Generation, m.Generation())
	}
}

// predictResponse mirrors the wire schema.
type predictResponse struct {
	Device     string `json:"device"`
	Generation uint64 `json:"generation"`
	Results    []struct {
		Watts []float64 `json:"watts"`
	} `json:"results"`
	Predictions int `json:"predictions"`
}

func TestPredictFullLadderBitwise(t *testing.T) {
	ts, _, m := newTestServer(t, nil)
	u := core.Utilization{hw.SP: 0.8, hw.DRAM: 0.4, hw.L2: 0.2}
	resp, data := postJSON(t, ts.URL+"/v1/predict",
		`{"device":"Tesla K40c","items":[{"utilization":{"SP":0.8,"DRAM":0.4,"L2":0.2}}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var out predictResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	configs := hw.TeslaK40c().AllConfigs()
	if len(out.Results) != 1 || len(out.Results[0].Watts) != len(configs) {
		t.Fatalf("shape wrong: %+v", out)
	}
	if out.Predictions != len(configs) {
		t.Fatalf("predictions = %d, want %d", out.Predictions, len(configs))
	}
	if out.Generation != m.Generation() {
		t.Fatalf("generation = %d, want %d", out.Generation, m.Generation())
	}
	for i, cfg := range configs {
		want, err := m.Predict(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out.Results[0].Watts[i]) != math.Float64bits(want) {
			t.Fatalf("config %v: served %x, direct %x", cfg, out.Results[0].Watts[i], want)
		}
	}
}

func TestPredictExplicitConfigsBitwise(t *testing.T) {
	ts, _, m := newTestServer(t, nil)
	u := core.Utilization{hw.Int: 0.3, hw.DRAM: 0.9}
	resp, data := postJSON(t, ts.URL+"/v1/predict",
		`{"device":"Tesla K40c","items":[{"utilization":{"INT":0.3,"DRAM":0.9},"configs":[{"core_mhz":666,"mem_mhz":3004},{"core_mhz":810,"mem_mhz":3004}]}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var out predictResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	want := []hw.Config{{CoreMHz: 666, MemMHz: 3004}, {CoreMHz: 810, MemMHz: 3004}}
	if len(out.Results) != 1 || len(out.Results[0].Watts) != len(want) {
		t.Fatalf("shape wrong: %+v", out)
	}
	for i, cfg := range want {
		p, err := m.Predict(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out.Results[0].Watts[i]) != math.Float64bits(p) {
			t.Fatalf("config %v: served %x, direct %x", cfg, out.Results[0].Watts[i], p)
		}
	}
}

func TestPredictErrors(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
		code int
	}{
		{"unknown device", `{"device":"nope","items":[{"utilization":{"SP":1}}]}`, 404},
		{"missing device", `{"items":[{"utilization":{"SP":1}}]}`, 400},
		{"empty items", `{"device":"Tesla K40c","items":[]}`, 400},
		{"bad component", `{"device":"Tesla K40c","items":[{"utilization":{"GPU":1}}]}`, 400},
		{"negative utilization", `{"device":"Tesla K40c","items":[{"utilization":{"SP":-1}}]}`, 400},
		{"unknown field", `{"device":"Tesla K40c","items":[],"wat":1}`, 400},
		{"off-ladder config", `{"device":"Tesla K40c","items":[{"utilization":{"SP":1},"configs":[{"core_mhz":1,"mem_mhz":1}]}]}`, 400},
		{"malformed json", `{`, 400},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/predict", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: HTTP %d (want %d): %s", tc.name, resp.StatusCode, tc.code, data)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON: %s", tc.name, data)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/predict = %d, want 405", resp.StatusCode)
	}
}

func TestPredictBodyBound(t *testing.T) {
	ts, _, _ := newTestServer(t, &Options{MaxRequestBytes: 256})
	big := `{"device":"Tesla K40c","items":[{"utilization":{"SP":0.1234567890123}}` +
		strings.Repeat(`,{"utilization":{"SP":0.5}}`, 64) + `]}`
	if len(big) <= 256 {
		t.Fatalf("test body too small (%d bytes)", len(big))
	}
	resp, data := postJSON(t, ts.URL+"/v1/predict", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP %d (want 413): %s", resp.StatusCode, data)
	}
}

func TestGovernMatchesDecide(t *testing.T) {
	ts, e, m := newTestServer(t, nil)
	u := core.Utilization{hw.SP: 0.9, hw.DRAM: 0.2}
	resp, data := postJSON(t, ts.URL+"/v1/govern",
		`{"device":"Tesla K40c","utilization":{"SP":0.9,"DRAM":0.2},"policy":"min-EDP"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Config  struct{ CoreMHz, MemMHz float64 } `json:"-"`
		Raw     json.RawMessage                   `json:"config"`
		Policy  string                            `json:"policy"`
		Power   float64                           `json:"power_watts"`
		RelTime float64                           `json:"rel_time"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		CoreMHz float64 `json:"core_mhz"`
		MemMHz  float64 `json:"mem_mhz"`
	}
	if err := json.Unmarshal(out.Raw, &cfg); err != nil {
		t.Fatal(err)
	}
	want, err := governor.Decide(t.Context(), m, e.Device(), governor.MinEDP, 0, u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(cfg.CoreMHz) != math.Float64bits(want.CoreMHz) ||
		math.Float64bits(cfg.MemMHz) != math.Float64bits(want.MemMHz) {
		t.Fatalf("served config (%g,%g), direct Decide %v", cfg.CoreMHz, cfg.MemMHz, want)
	}
	wantPower, err := m.Predict(u, want)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(out.Power) != math.Float64bits(wantPower) {
		t.Fatalf("power %x, want %x", out.Power, wantPower)
	}
	if out.Policy != "min-EDP" {
		t.Fatalf("policy echoed as %q", out.Policy)
	}

	resp, data = postJSON(t, ts.URL+"/v1/govern",
		`{"device":"Tesla K40c","utilization":{"SP":0.9},"policy":"warp-speed"}`)
	if resp.StatusCode != 400 {
		t.Fatalf("unknown policy: HTTP %d: %s", resp.StatusCode, data)
	}
	// A cap below every ladder point is unsatisfiable.
	resp, data = postJSON(t, ts.URL+"/v1/govern",
		`{"device":"Tesla K40c","utilization":{"SP":0.9},"policy":"max-perf-under-cap","power_cap_watts":1}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unsatisfiable cap: HTTP %d: %s", resp.StatusCode, data)
	}
}

func TestBreakdownMatchesDecompose(t *testing.T) {
	ts, _, m := newTestServer(t, nil)
	u := core.Utilization{hw.SP: 0.5, hw.DRAM: 0.5, hw.Shared: 0.1}
	resp, data := postJSON(t, ts.URL+"/v1/breakdown",
		`{"device":"Tesla K40c","utilization":{"SP":0.5,"DRAM":0.5,"Shared":0.1},"config":{"core_mhz":745,"mem_mhz":3004}}`)
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Constant   float64            `json:"constant_watts"`
		Components map[string]float64 `json:"component_watts"`
		Total      float64            `json:"total_watts"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	b, err := m.Decompose(u, hw.Config{CoreMHz: 745, MemMHz: 3004})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(out.Constant) != math.Float64bits(b.Constant) {
		t.Fatalf("constant %x, want %x", out.Constant, b.Constant)
	}
	if math.Float64bits(out.Total) != math.Float64bits(b.Total()) {
		t.Fatalf("total %x, want %x", out.Total, b.Total())
	}
	for _, c := range hw.Components {
		if math.Float64bits(out.Components[c.String()]) != math.Float64bits(b.Component[c]) {
			t.Fatalf("%s: %x, want %x", c, out.Components[c.String()], b.Component[c])
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	postJSON(t, ts.URL+"/v1/predict",
		`{"device":"Tesla K40c","items":[{"utilization":{"SP":0.8}}]}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		`gpowerd_requests_total{path="/v1/predict",code="200"} 1`,
		"gpowerd_predictions_total 4",
		"# TYPE gpowerd_request_duration_seconds histogram",
		"gpowerd_surface_cache_hits_total",
		"gpowerd_devices 1",
		`gpowerd_model_generation{device="Tesla K40c"}`,
		`gpowerd_model_converged{device="Tesla K40c"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestSwapMidTraffic drives concurrent /v1/predict requests through a real
// HTTP stack while the entry swaps between two models; every response
// batch must be bitwise-identical to one model's expected vector — the
// serving-layer version of the registry's snapshot-per-batch guarantee.
// Run with -race.
func TestSwapMidTraffic(t *testing.T) {
	ts, e, a := newTestServer(t, nil)
	dev := e.Device()
	b := testModel(t, dev, 55)
	u := core.Utilization{hw.SP: 0.8, hw.DRAM: 0.4, hw.L2: 0.2}
	configs := dev.AllConfigs()

	expect := func(m *core.Model) []float64 {
		out := make([]float64, len(configs))
		if err := m.PredictAll(u, configs, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	expectedA, expectedB := expect(a), expect(b)

	body := `{"device":"Tesla K40c","items":[{"utilization":{"SP":0.8,"DRAM":0.4,"L2":0.2}}]}`
	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, readers)
	// A batch that only one model produces, and the generation reported
	// with it; checked once the swapping is over (see installedAs).
	type served struct {
		gen   uint64
		model *core.Model
	}
	seen := make([][]served, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != 200 {
					errc <- fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
					return
				}
				var out predictResponse
				if err := json.Unmarshal(data, &out); err != nil {
					errc <- err
					return
				}
				matchA := batchEquals(out.Results[0].Watts, expectedA)
				matchB := batchEquals(out.Results[0].Watts, expectedB)
				if !matchA && !matchB {
					errc <- fmt.Errorf("served batch matches neither generation: %v", out.Results[0].Watts)
					return
				}
				if matchA != matchB {
					m := a
					if matchB {
						m = b
					}
					seen[r] = append(seen[r], served{gen: out.Generation, model: m})
				}
			}
		}(r)
	}

	// The generation each model was installed under. Swap gives the
	// outgoing model a fresh generation, so by the time a reader looks,
	// the model that served its batch may already carry another one; the
	// reported generation must match the one it was serving under.
	installedAs := map[uint64]*core.Model{a.Generation(): a}
	cur, next := a, b
	for i := 0; i < 150; i++ {
		if _, err := e.Swap(next, registry.FitMeta{}); err != nil {
			t.Fatal(err)
		}
		installedAs[next.Generation()] = next
		cur, next = next, cur
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	_ = cur
	// The reported generation must agree with the batch content.
	for _, obs := range seen {
		for _, s := range obs {
			if installedAs[s.gen] != s.model {
				t.Fatalf("batch from model %p but generation %d (installed for %p)", s.model, s.gen, installedAs[s.gen])
			}
		}
	}
}

func batchEquals(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// TestPredictEncoderRoundTrip pins the manual response encoder against
// encoding/json semantics: every float that goes out re-parses to the
// identical bits (Go emits shortest round-trip decimals).
func TestPredictEncoderRoundTrip(t *testing.T) {
	ts, _, m := newTestServer(t, nil)
	// An awkward utilization: long decimals everywhere.
	resp, data := postJSON(t, ts.URL+"/v1/predict",
		`{"device":"Tesla K40c","items":[{"utilization":{"SP":0.12345678901234567,"DRAM":0.9876543210987654,"INT":1e-9}}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var out predictResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	u := core.Utilization{hw.SP: 0.12345678901234567, hw.DRAM: 0.9876543210987654, hw.Int: 1e-9}
	for i, cfg := range hw.TeslaK40c().AllConfigs() {
		want, err := m.Predict(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out.Results[0].Watts[i]) != math.Float64bits(want) {
			t.Fatalf("config %v: %x vs %x", cfg, out.Results[0].Watts[i], want)
		}
	}
}

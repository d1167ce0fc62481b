package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"gpupower/internal/hw"
)

// fuzzEndpoint posts arbitrary bodies to one endpoint of a server over the
// synthetic Tesla K40c model, straight through ServeHTTP. Every answer must
// be a 200 or a 4xx with a valid JSON body (so a 200 never carries a
// non-finite number), and the same body sent again must get the same bytes.
// The corpus starts from errorCases and the two bodies whose utilization
// has no single reading, shaped for the endpoint by wrap.
func fuzzEndpoint(f *testing.F, path string, wrap func(util string) string) {
	for _, tc := range errorCases {
		f.Add(tc.body)
	}
	f.Add(wrap(`{"SP":0.1,"sp":0.9}`))
	f.Add(wrap(`{"FOO":0.1,"BAR":0.2,"BAZ":0.3}`))
	s, _ := modelServer(f, testModel(f, hw.TeslaK40c(), 40), nil)
	f.Fuzz(func(t *testing.T, body string) {
		first := post(s, path, body)
		if c := first.Code; c != http.StatusOK && (c < 400 || c > 499) {
			t.Fatalf("HTTP %d for %q: %s", c, body, first.Body)
		}
		if !json.Valid(first.Body.Bytes()) {
			t.Fatalf("HTTP %d for %q: body is not JSON: %q", first.Code, body, first.Body)
		}
		again := post(s, path, body)
		if again.Code != first.Code || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("%q answered twice differently:\n%d %s\n%d %s", body, first.Code, first.Body, again.Code, again.Body)
		}
	})
}

func FuzzPredict(f *testing.F) {
	fuzzEndpoint(f, "/v1/predict", func(util string) string {
		return `{"device":"Tesla K40c","items":[{"utilization":` + util + `,"configs":[{"core_mhz":875,"mem_mhz":3004}]}]}`
	})
}

func FuzzGovern(f *testing.F) {
	fuzzEndpoint(f, "/v1/govern", func(util string) string {
		return `{"device":"Tesla K40c","utilization":` + util + `,"policy":"min-EDP"}`
	})
}

func FuzzBreakdown(f *testing.F) {
	fuzzEndpoint(f, "/v1/breakdown", func(util string) string {
		return `{"device":"Tesla K40c","utilization":` + util + `}`
	})
}

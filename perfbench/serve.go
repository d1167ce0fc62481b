package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"gpupower/internal/core"
	"gpupower/internal/fleet"
	"gpupower/internal/governor"
	"gpupower/internal/hw"
	"gpupower/internal/registry"
	"gpupower/internal/serve"
)

// The serve workload: gpowerd's HTTP layer over one fitted GTX Titan X,
// driven by one keep-alive client in a closed loop with no think time, on
// one core. Each cycle sends one batch predict, whose full-ladder items come
// from a small hot set and so hit the prediction-surface cache, then eight
// govern requests, each for a utilization never seen before, which miss it.
const (
	serveDevice  = "GTX Titan X"
	serveHotSet  = 64  // distinct utilization vectors the predict items use
	serveItems   = 256 // full-ladder items per predict request
	serveBodies  = 4   // distinct predict bodies, sent in rotation
	serveGoverns = 8   // govern requests per cycle
	serveWindow  = time.Second
	// serveExactCycles is the fixed number of in-process cycles a traced
	// run counts allocations and cache outcomes over, so the counts repeat.
	// It is long enough for the govern inserts to overflow cache shards and
	// evict hot entries, as they do in the timed phase.
	serveExactCycles = 512
	// serveBatch is how many cycles the client sends between pauses. A
	// pause, outside the measured time, checks the batch's govern answers,
	// renders the next batch's govern requests and, in a traced run,
	// replays the batch in process; it ends with a collection, so the
	// benchmark's own garbage is not collected on the server's time.
	serveBatch = 64
)

var servePolicies = []governor.Policy{governor.MinEnergy, governor.MinEDP, governor.MaxPerfUnderCap}

// servePolicy is the policy of cycle cyc's j-th govern request.
func servePolicy(cyc int64, j int) governor.Policy {
	return servePolicies[(int(cyc)*serveGoverns+j)%len(servePolicies)]
}

// serveInputs is one serve setup: a fitted model registered and served on
// a loopback listener.
type serveInputs struct {
	member *fleet.Member
	entry  *registry.Entry
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
}

func servePrepare(ctx context.Context, b *bench, parent int, op int64) (*serveInputs, error) {
	spec := fleet.Spec{Device: serveDevice, Seed: fleetSeed}
	sp := b.tr.begin("fleet.open_member", parent, op)
	m, err := fleet.OpenMember(spec)
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = b.tr.begin("profiler.dataset", parent, op)
	d, err := m.BuildDataset(ctx)
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = b.tr.begin("core.estimate", parent, op)
	model, err := core.Estimate(ctx, d, nil)
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	entry, err := registry.NewEntry(spec.String(), m.Device, m.Backend, m.Profiler, model, registry.FitMeta{Source: "simulator"})
	if err != nil {
		return nil, err
	}
	reg := registry.New()
	if err := reg.Add(entry); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &serveInputs{member: m, entry: entry, srv: serve.New(reg, nil), served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	in.hs = &http.Server{Handler: in.srv}
	//lint:ignore gonosync HTTP accept loop: net/http owns the connection goroutines; close joins it through in.served
	go func() { in.served <- in.hs.Serve(ln) }()
	return in, nil
}

// close stops the server and waits for its accept loop to return; closing
// again does nothing.
func (in *serveInputs) close() error {
	if in.hs == nil {
		return nil
	}
	in.hs.Close()
	in.hs = nil
	if err := <-in.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// serveClient is the one keep-alive client.
type serveClient struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

// post sends one request and reads the whole response; the returned bytes
// are valid until the next post.
func (c *serveClient) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, c.buf.Bytes(), err
}

// recorder is an in-process http.ResponseWriter. One is reused across
// requests, so the allocations counted around a request are the server's.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }
func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}
func (r *recorder) reset() {
	clear(r.h)
	r.code = 0
	r.body.Reset()
}

// governCall is one govern request's input.
type governCall struct {
	util   core.Utilization
	policy governor.Policy
}

// drawUtil draws a utilization for every component, in hw.Components
// order so the draws follow the seed.
func drawUtil(rng *rand.Rand) core.Utilization {
	u := make(core.Utilization, len(hw.Components))
	for _, c := range hw.Components {
		u[c] = rng.Float64()
	}
	return u
}

func wireUtil(u core.Utilization) map[string]float64 {
	w := make(map[string]float64, len(u))
	for c, v := range u {
		w[c.String()] = v
	}
	return w
}

// governBody draws a fresh utilization vector and renders its request.
func governBody(device string, rng *rand.Rand, policy governor.Policy) (governCall, []byte, error) {
	call := governCall{util: drawUtil(rng), policy: policy}
	body, err := json.Marshal(map[string]any{
		"device":      device,
		"utilization": wireUtil(call.util),
		"policy":      policy.String(),
	})
	return call, body, err
}

// governBatch is one batch's govern requests, rendered before the batch,
// and the server's answers, checked after it.
type governBatch struct {
	calls  []governCall
	bodies [][]byte
	status []int
	resp   []byte // the answers, back to back
	ends   []int  // answer i is resp[ends[i-1]:ends[i]]
}

// render draws the govern requests of serveBatch cycles from cycle cyc0 on.
func (g *governBatch) render(device string, rng *rand.Rand, cyc0 int64) error {
	g.calls, g.bodies = g.calls[:0], g.bodies[:0]
	g.status, g.resp, g.ends = g.status[:0], g.resp[:0], g.ends[:0]
	for cyc := cyc0; cyc < cyc0+serveBatch; cyc++ {
		for j := 0; j < serveGoverns; j++ {
			call, body, err := governBody(device, rng, servePolicy(cyc, j))
			if err != nil {
				return err
			}
			g.calls = append(g.calls, call)
			g.bodies = append(g.bodies, body)
		}
	}
	return nil
}

// record keeps the answer to the next request of the batch.
func (g *governBatch) record(status int, resp []byte) {
	g.status = append(g.status, status)
	g.resp = append(g.resp, resp...)
	g.ends = append(g.ends, len(g.resp))
}

// check verifies every recorded answer with checkGovern.
func (g *governBatch) check(ctx context.Context, b *bench, direct *core.SurfaceCache, m *core.Model, dev *hw.Device) {
	start := 0
	for i, end := range g.ends {
		resp := g.resp[start:end]
		start = end
		var err error
		if g.status[i] != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", g.status[i], resp)
		} else {
			err = checkGovern(ctx, direct, m, dev, g.calls[i], resp)
		}
		b.check(err == nil, "govern: %v", err)
	}
}

// checkGovern verifies a govern answer against the governor's choice on a
// surface computed directly for the same utilization, through a cache the
// server never sees, and against the model's power there, bit for bit.
func checkGovern(ctx context.Context, direct *core.SurfaceCache, m *core.Model, dev *hw.Device, call governCall, resp []byte) error {
	var r struct {
		Config struct {
			CoreMHz float64 `json:"core_mhz"`
			MemMHz  float64 `json:"mem_mhz"`
		} `json:"config"`
		PowerWatts float64 `json:"power_watts"`
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		return err
	}
	u := call.util
	s, err := direct.Get(ctx, m, dev, m.Ref, u)
	if err != nil {
		return err
	}
	i, err := governor.DecideOnSurface(s, call.policy, dev.TDP)
	if err != nil {
		return err
	}
	want, err := m.Predict(u, s.Configs[i])
	if err != nil {
		return err
	}
	got := hw.Config{CoreMHz: r.Config.CoreMHz, MemMHz: r.Config.MemMHz}
	if got != s.Configs[i] || math.Float64bits(r.PowerWatts) != math.Float64bits(want) {
		return fmt.Errorf("%v: answered %v at %v W, governor chose %v at %v W", call.policy, got, r.PowerWatts, s.Configs[i], want)
	}
	return nil
}

// predictBodies renders the rotating predict requests: each item is a hot
// set vector, drawn at random. items[b] lists body b's vectors in order.
func predictBodies(device string, rng *rand.Rand) (bodies [][]byte, items [][]core.Utilization, err error) {
	hot := make([]core.Utilization, serveHotSet)
	for i := range hot {
		hot[i] = drawUtil(rng)
	}
	type wireItem struct {
		Utilization map[string]float64 `json:"utilization"`
	}
	for b := 0; b < serveBodies; b++ {
		wire := make([]wireItem, serveItems)
		order := make([]core.Utilization, serveItems)
		for i := range wire {
			order[i] = hot[rng.Intn(serveHotSet)]
			wire[i] = wireItem{Utilization: wireUtil(order[i])}
		}
		body, err := json.Marshal(map[string]any{"device": device, "items": wire})
		if err != nil {
			return nil, nil, err
		}
		bodies = append(bodies, body)
		items = append(items, order)
	}
	return bodies, items, nil
}

// checkPredict verifies a predict response bitwise against Model.Predict
// over the full ladder for every item.
func checkPredict(m *core.Model, dev *hw.Device, resp []byte, items []core.Utilization) error {
	var r struct {
		Results []struct {
			Watts []float64 `json:"watts"`
		} `json:"results"`
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		return err
	}
	if len(r.Results) != len(items) {
		return fmt.Errorf("%d results for %d items", len(r.Results), len(items))
	}
	configs := dev.AllConfigs()
	for i, res := range r.Results {
		if len(res.Watts) != len(configs) {
			return fmt.Errorf("item %d: %d watts for %d configurations", i, len(res.Watts), len(configs))
		}
		for j, cfg := range configs {
			want, err := m.Predict(items[i], cfg)
			if err != nil {
				return err
			}
			if math.Float64bits(res.Watts[j]) != math.Float64bits(want) {
				return fmt.Errorf("item %d at %v: served %v, Model.Predict %v", i, cfg, res.Watts[j], want)
			}
		}
	}
	return nil
}

func runServe(ctx context.Context, b *bench) error {
	runtime.GOMAXPROCS(1)
	var prev *serveInputs
	in, err := setup(b, func(parent int, op int64) (*serveInputs, error) {
		if prev != nil {
			if err := prev.close(); err != nil {
				return nil, err
			}
		}
		var err error
		prev, err = servePrepare(ctx, b, parent, op)
		return prev, err
	})
	if err != nil {
		return err
	}
	defer in.close()

	m, _ := in.entry.Snapshot()
	dev, name := in.entry.Device(), in.entry.Name()
	if err := validateModels(ctx, b, []*fleet.Member{in.member}, []*core.Model{m}); err != nil {
		return err
	}
	bodies, items, err := predictBodies(name, rand.New(rand.NewSource(int64(b.seed))))
	if err != nil {
		return err
	}
	govRNG := rand.New(rand.NewSource(int64(b.seed) ^ 0x6f7665726e))
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	c := &serveClient{hc: &http.Client{Transport: tr}, base: in.base}

	// Pre-flight: each body's response is checked bitwise against the
	// model once; every timed response must then repeat it byte for byte.
	preflight := make([][]byte, serveBodies)
	var respBytes float64
	for bi, body := range bodies {
		status, resp, err := c.post(ctx, "/v1/predict", body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", status, resp)
		}
		if err == nil {
			err = checkPredict(m, dev, resp, items[bi])
		}
		b.check(err == nil, "pre-flight predict %d: %v", bi, err)
		preflight[bi] = bytes.Clone(resp)
		respBytes += float64(len(resp))
	}
	b.layer["serve.bytes_per_predict_response"] = respBytes / serveBodies
	w := &recorder{h: make(http.Header)}
	if b.traced() {
		if err := serveExactCounts(ctx, b, in, w, bodies, preflight); err != nil {
			return err
		}
	}

	// The timed phase runs in batches of serveBatch cycles. Only the
	// batches are measured: completion times, windows and the phase's
	// length count batch time alone, and the pauses between batches hold
	// the benchmark's own work. The one check inside a batch compares a
	// predict answer with its pre-flight bytes.
	ladder := float64(serveItems * dev.NumConfigs())
	var (
		predictLat, governLat       []float64
		predictSpanned, predictBare []float64
		predictAt, governAt         []time.Duration
		work                        []float64
		active                      time.Duration
		gcs                         uint32
		gov                         governBatch
		direct                      = core.NewSurfaceCache(1)
		ms0, ms1                    runtime.MemStats
		replayRNG                   = rand.New(rand.NewSource(int64(b.seed) ^ 0x7265706c6179))
	)
	b.startPhase()
	phase := time.Now()
	for op := int64(0); op == 0 || active < b.dur; {
		cyc0 := op
		if err := gov.render(name, govRNG, cyc0); err != nil {
			return err
		}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		batch := time.Now()
		for ; op < cyc0+serveBatch; op++ {
			// Traced runs span every other cycle's requests; the bare
			// cycles give the tracing overhead.
			spanned := b.traced() && op%2 == 0
			bi := int(op % serveBodies)
			sp := -1
			if spanned {
				sp = b.tr.begin("http.predict", -1, op)
			}
			t0 := time.Now()
			status, resp, err := c.post(ctx, "/v1/predict", bodies[bi])
			lat := time.Since(t0)
			b.tr.end(sp)
			predictAt = append(predictAt, active+time.Since(batch))
			same := err == nil && bytes.Equal(resp, preflight[bi])
			ok := same && status == http.StatusOK
			b.check(ok, "predict body %d: HTTP %d, err %v, equal to pre-flight %v", bi, status, err, same)
			predictLat = append(predictLat, ms(lat))
			if spanned {
				predictSpanned = append(predictSpanned, ms(lat))
			} else if b.traced() {
				predictBare = append(predictBare, ms(lat))
			}
			if ok {
				work = append(work, ladder)
			} else {
				work = append(work, 0)
			}

			for j := 0; j < serveGoverns; j++ {
				sp := -1
				if spanned {
					sp = b.tr.begin("http.govern", -1, op)
				}
				t0 := time.Now()
				status, resp, err := c.post(ctx, "/v1/govern", gov.bodies[int(op-cyc0)*serveGoverns+j])
				lat := time.Since(t0)
				b.tr.end(sp)
				governAt = append(governAt, active+time.Since(batch))
				governLat = append(governLat, ms(lat))
				if err != nil {
					status, resp = 0, []byte(err.Error())
				}
				gov.record(status, resp)
			}
		}
		active += time.Since(batch)
		runtime.ReadMemStats(&ms1)
		gcs += ms1.NumGC - ms0.NumGC

		gov.check(ctx, b, direct, m, dev)
		if b.traced() {
			for cyc := cyc0; cyc < op; cyc++ {
				bi := cyc % serveBodies
				if err := serveReplay(ctx, b, in, w, cyc, bodies[bi], preflight[bi], items[bi], replayRNG); err != nil {
					return err
				}
			}
		}
		b.tick()
	}
	b.endPhase()
	pausePct := 100 * (1 - active.Seconds()/time.Since(phase).Seconds())

	predictWin := windowMedians(predictAt, predictLat, serveWindow, active)
	governWin := windowMedians(governAt, governLat, serveWindow, active)
	rates := windowRates(predictAt, work, serveWindow, active)
	b.e2e["primary_ms"] = slowTime(predictWin)
	b.e2e["secondary_ms"] = slowTime(governWin)
	b.e2e["throughput_per_s"] = slowRate(rates)
	win := fmt.Sprintf("of %d one-second window medians", len(predictWin))
	b.report("predict_p50_ms", b.e2e["primary_ms"], "ms", fmt.Sprintf("%d requests, q75 %s (%s)", len(predictLat), win, quartiles(predictWin)))
	b.report("predict_p99_ms", quantile(predictLat, 0.99), "ms", "all requests")
	b.report("govern_p50_ms", b.e2e["secondary_ms"], "ms", fmt.Sprintf("%d requests, q75 %s (%s)", len(governLat), win, quartiles(governWin)))
	b.report("govern_p99_ms", quantile(governLat, 0.99), "ms", "all requests")
	b.report("predictions_per_s", b.e2e["throughput_per_s"], "1/s", fmt.Sprintf("q25 of %d one-second window rates (%s); pauses %.1f %% of the phase", len(rates), quartiles(rates), pausePct))

	b.layer["serve.predict_p99_ms"] = quantile(predictLat, 0.99)
	b.layer["serve.govern_p99_ms"] = quantile(governLat, 0.99)
	b.layer["runtime.gc_per_1k_requests"] = 1000 * float64(gcs) / float64(len(predictLat)+len(governLat))
	if b.traced() {
		self := selfByName(b.tr.spans)
		durs := durationsByName(b.tr.spans)
		hp, hg := median(durs["serve.handler.predict"]), median(durs["serve.handler.govern"])
		cp, cg := median(durs["serve.compute.predict"]), median(durs["serve.compute.govern"])
		b.layer["serve.handler_predict_ms"] = hp
		b.layer["serve.handler_govern_ms"] = hg
		b.layer["serve.compute_predict_ms"] = cp
		b.layer["serve.compute_govern_ms"] = cg
		b.layer["serve.codec_predict_ms"] = hp - cp
		b.layer["serve.codec_govern_ms"] = hg - cg
		b.layer["http.transport_predict_ms"] = median(durs["http.predict"]) - hp
		b.layer["http.transport_govern_ms"] = median(durs["http.govern"]) - hg
		b.layer["core.surface_hit_us"] = 1e3 * median(self["core.surfaces.get.hit"]) / serveItems
		b.layer["core.surface_miss_us"] = 1e3 * median(self["core.surfaces.get.miss"])
		b.layer["governor.decide_us"] = 1e3 * median(self["governor.decide_on_surface"])
		b.layer["registry.snapshot_ns"] = 1e6 * median(self["registry.snapshot.batch"]) / snapshotBatch
		bare := median(predictBare)
		b.layer["trace.overhead_pct"] = 100 * (median(predictSpanned) - bare) / bare
	}
	return in.close()
}

// snapshotBatch is how many registry snapshots one probe span times: a
// single snapshot is far shorter than the clock's resolution.
const snapshotBatch = 1024

// newRequest builds an in-process POST; building it is kept out of what
// the in-process cycles time and count.
func newRequest(ctx context.Context, path string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, path, bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

// handlerCycle sends one cycle through the server's handler in process,
// with no socket: the predict body, whose answer must equal want, then
// serveGoverns govern requests for fresh vectors drawn from rng. around
// runs each request's ServeHTTP call; class is 0 for the predict and 1 for
// a govern.
func handlerCycle(ctx context.Context, b *bench, in *serveInputs, w *recorder, cyc int64, body, want []byte, rng *rand.Rand, around func(class int, serve func())) error {
	send := func(class int, path string, body, want []byte) error {
		req, err := newRequest(ctx, path, body)
		if err != nil {
			return err
		}
		w.reset()
		around(class, func() { in.srv.ServeHTTP(w, req) })
		b.check(w.code == http.StatusOK && (want == nil || bytes.Equal(w.body.Bytes(), want)),
			"in-process %s: HTTP %d", path, w.code)
		return nil
	}
	if err := send(0, "/v1/predict", body, want); err != nil {
		return err
	}
	for j := 0; j < serveGoverns; j++ {
		_, gb, err := governBody(in.entry.Name(), rng, servePolicy(cyc, j))
		if err != nil {
			return err
		}
		if err := send(1, "/v1/govern", gb, nil); err != nil {
			return err
		}
	}
	return nil
}

// serveExactCounts sends a fixed sequence of cycles through the server's
// handler in process and counts what each request allocates and how it
// fares in the surface cache. Every input and the cache's state are fixed
// by the seed, so the counts repeat run to run.
func serveExactCounts(ctx context.Context, b *bench, in *serveInputs, w *recorder, bodies, preflight [][]byte) error {
	rng := rand.New(rand.NewSource(int64(b.seed) ^ 0x6578616374))
	var (
		allocs       [2][]float64 // predict, govern
		hits, misses [2]uint64
		ms0, ms1     runtime.MemStats
	)
	count := func(class int, serve func()) {
		h0, m0 := core.Surfaces.Stats()
		runtime.ReadMemStats(&ms0)
		serve()
		runtime.ReadMemStats(&ms1)
		h1, m1 := core.Surfaces.Stats()
		allocs[class] = append(allocs[class], float64(ms1.Mallocs-ms0.Mallocs))
		hits[class] += h1 - h0
		misses[class] += m1 - m0
	}
	for cyc := int64(0); cyc < serveExactCycles; cyc++ {
		bi := cyc % serveBodies
		if err := handlerCycle(ctx, b, in, w, cyc, bodies[bi], preflight[bi], rng, count); err != nil {
			return err
		}
	}
	b.layer["serve.allocs_per_predict"] = fewest(allocs[0])
	b.layer["serve.allocs_per_govern"] = fewest(allocs[1])
	b.layer["core.surface_hit_ratio.predict"] = float64(hits[0]) / float64(hits[0]+misses[0])
	b.layer["core.surface_hit_ratio.govern"] = float64(hits[1]) / float64(hits[1]+misses[1])
	return nil
}

// serveReplay repeats cycle cyc's work in process: first the same predict
// body and fresh govern requests through the server's handler, then the
// layer calls those handlers make, on the same kind of inputs. With the
// HTTP times, the spans split a request into transport (HTTP minus
// handler), codec (handler minus compute) and compute.
func serveReplay(ctx context.Context, b *bench, in *serveInputs, w *recorder, cyc int64, body, want []byte, items []core.Utilization, rng *rand.Rand) error {
	handlerSpans := [2]string{"serve.handler.predict", "serve.handler.govern"}
	err := handlerCycle(ctx, b, in, w, cyc, body, want, rng, func(class int, serve func()) {
		sp := b.tr.begin(handlerSpans[class], -1, cyc)
		serve()
		b.tr.end(sp)
	})
	if err != nil {
		return err
	}

	dev := in.entry.Device()
	sp := b.tr.begin("serve.compute.predict", -1, cyc)
	s := b.tr.begin("registry.snapshot", sp, cyc)
	m, _ := in.entry.Snapshot()
	b.tr.end(s)
	s = b.tr.begin("core.surfaces.get.hit", sp, cyc)
	for _, u := range items {
		if _, err := core.Surfaces.Get(ctx, m, dev, m.Ref, u); err != nil {
			return err
		}
	}
	b.tr.end(s)
	b.tr.end(sp)

	for j := 0; j < serveGoverns; j++ {
		u, policy := drawUtil(rng), servePolicy(cyc, j)
		sp := b.tr.begin("serve.compute.govern", -1, cyc)
		s := b.tr.begin("registry.snapshot", sp, cyc)
		m, _ := in.entry.Snapshot()
		b.tr.end(s)
		s = b.tr.begin("core.surfaces.get.miss", sp, cyc)
		surf, err := core.Surfaces.Get(ctx, m, dev, m.Ref, u)
		b.tr.end(s)
		if err != nil {
			return err
		}
		s = b.tr.begin("governor.decide_on_surface", sp, cyc)
		i, err := governor.DecideOnSurface(surf, policy, dev.TDP)
		b.tr.end(s)
		if err != nil {
			return err
		}
		s = b.tr.begin("core.model.predict", sp, cyc)
		_, err = m.Predict(u, surf.Configs[i])
		core.EstimateRelativeTime(u, m.Ref, surf.Configs[i])
		b.tr.end(s)
		b.tr.end(sp)
		if err != nil {
			return err
		}
	}

	s = b.tr.begin("registry.snapshot.batch", -1, cyc)
	for k := 0; k < snapshotBatch; k++ {
		in.entry.Snapshot()
	}
	b.tr.end(s)
	return nil
}

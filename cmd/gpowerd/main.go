// Command gpowerd is the long-running power-model serving daemon: it fits
// one DVFS-aware model per device at startup and serves batch predictions,
// governor decisions, power breakdowns and Prometheus metrics over HTTP.
//
//	gpowerd                                    # all three catalog devices, simulator-backed
//	gpowerd -devices "GTX Titan X" -seed 7     # one device, different die
//	gpowerd -fleet 12                          # 12-member fleet, round-robin catalog
//	gpowerd -trace testdata/k40c-fit.trace.gz  # demo mode: fit from a recorded trace, zero hardware
//	curl -s localhost:8080/healthz
//
// Endpoints: GET /healthz, GET /v1/devices, POST /v1/predict,
// POST /v1/govern, POST /v1/breakdown, GET /metrics.
//
// SIGINT/SIGTERM drains gracefully: in-flight requests get up to the
// -drain timeout to finish before the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gpupower"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "address to serve HTTP on")
	devices := flag.String("devices", strings.Join(gpupower.DeviceNames(), ","), "comma-separated catalog devices to fit and serve (simulator-backed)")
	fleetN := flag.Int("fleet", 0, "when > 0, serve an n-member fleet drawn round-robin from the catalog instead of -devices")
	seed := flag.Uint64("seed", 42, "simulation seed (fleet members get seed, seed+1, ...)")
	trace := flag.String("trace", "", "demo mode: fit from this recorded measurement trace instead of the simulator (zero hardware)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	maxBody := flag.Int64("max-request-bytes", 0, "request body size limit (0 = default 8 MiB)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg, err := buildRegistry(ctx, *trace, *devices, *fleetN, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpowerd: %v\n", err)
		os.Exit(1)
	}
	for _, name := range reg.Names() {
		e, _ := reg.Lookup(name)
		m, meta := e.Snapshot()
		fmt.Printf("gpowerd: %s fitted (source=%s, converged=%v, %d iterations)\n",
			name, meta.Source, m.Converged, m.Iterations)
	}

	srv := &http.Server{Addr: *listen, Handler: gpowerRegistryHandler(reg, *maxBody)}

	done := make(chan struct{})
	//lint:ignore gonosync shutdown watcher: one goroutine bridging the signal context to http.Server.Shutdown, joined via done before exit
	go func() {
		defer close(done)
		<-ctx.Done()
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "gpowerd: drain: %v\n", err)
		}
	}()

	fmt.Printf("gpowerd: serving %d device(s) on http://%s\n", reg.Len(), *listen)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "gpowerd: %v\n", err)
		os.Exit(1)
	}
	<-done
	fmt.Println("gpowerd: drained, bye")
}

// buildRegistry assembles the model registry per the flags: trace demo
// mode, an explicit device list, or a synthetic fleet.
func buildRegistry(ctx context.Context, trace, devices string, fleetN int, seed uint64) (*gpupower.ModelRegistry, error) {
	if trace != "" {
		gpu, err := gpupower.OpenTrace(trace)
		if err != nil {
			return nil, err
		}
		entry, err := gpu.FitRegistryEntry(ctx, "", "trace", nil)
		if err != nil {
			return nil, err
		}
		reg := gpupower.NewModelRegistry()
		if err := reg.Add(entry); err != nil {
			return nil, err
		}
		return reg, nil
	}
	var specs []gpupower.FleetSpec
	if fleetN > 0 {
		specs = gpupower.FleetSpecs(fleetN, seed)
	} else {
		for i, name := range strings.Split(devices, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			specs = append(specs, gpupower.FleetSpec{Device: name, Seed: seed + uint64(i)})
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no devices to serve (check -devices / -fleet)")
	}
	return gpupower.BuildModelRegistry(ctx, specs, nil)
}

// gpowerRegistryHandler builds the HTTP handler with the body-size limit
// applied.
func gpowerRegistryHandler(reg *gpupower.ModelRegistry, maxBody int64) http.Handler {
	var opts *gpupower.ServeOptions
	if maxBody > 0 {
		opts = &gpupower.ServeOptions{MaxRequestBytes: maxBody}
	}
	return gpupower.NewPowerServer(reg, opts)
}

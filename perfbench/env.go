package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

// readCPUTimes returns the host's cumulative CPU times; ok is false where
// /proc/stat is unavailable.
func readCPUTimes() (t cpuTimes, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return t, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return t, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return t, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so the sum stops at steal.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return t, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealPct is the share of host CPU time stolen by the hypervisor between
// two readings, in percent.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// cpuTime is the CPU time the process has used, user and system. A guest
// kernel with paravirtual steal accounting leaves out the time the
// hypervisor ran other guests on its CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probeSink keeps the probe loop's result live.
var probeSink uint64

// probe times a fixed integer loop: the same work on every host and every
// run, so its median shows how fast the host ran during the benchmark.
func probe() time.Duration {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 200_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return time.Since(start)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or 0 where
// /proc/self/status is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// gitRevision is the commit the binary was built from, as the go command
// stamps it when building inside a git work tree.
func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// envStamp is the line every result carries: where and on what it ran.
func envStamp(seed uint64, steal, probeUS float64) string {
	return fmt.Sprintf("env: nproc=%d gomaxprocs=%d goarch=%s go=%s git=%s seed=%d steal_pct=%.2f probe_us=%.1f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOARCH, runtime.Version(), gitRevision(), seed, steal, probeUS)
}

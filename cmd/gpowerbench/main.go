// Command gpowerbench regenerates the paper's tables and figures from the
// simulated devices:
//
//	gpowerbench -exp fig7             # one experiment
//	gpowerbench -exp fig6 -plot       # with an ASCII chart
//	gpowerbench -exp all              # everything, in paper order
//	gpowerbench -exp fig8 -seed 7     # different die instance
//	gpowerbench -csv out/             # export every data series as CSV
//
// Experiments: table1 table2 table3 fig2 fig5 fig6 fig7 fig8 fig9 fig10
// convergence baselines ablation breakdown governor timemodel cluster
// robustness sources all.
//
// Ctrl-C (SIGINT/SIGTERM) cancels the in-flight experiment at its next
// measurement or fitting checkpoint and exits with an error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"gpupower/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run; comma-separated list or \"all\"")
	seed := flag.Uint64("seed", experiments.DefaultSeed, "simulation seed")
	csvDir := flag.String("csv", "", "when set, export every experiment's data series as CSV into this directory and exit")
	plot := flag.Bool("plot", false, "render ASCII charts for the figure experiments that support it (fig2, fig6, fig7, fig9)")
	report := flag.String("report", "", "when set, write a self-contained markdown evaluation report to this file and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *report != "" {
		if err := writeReport(ctx, *report, *seed); err != nil {
			fail("report", err)
		}
		fmt.Println("report written to", *report)
		return
	}

	if *csvDir != "" {
		paths, err := experiments.ExportAllCSVs(ctx, *csvDir, *seed)
		if err != nil {
			fail("csv export", err)
		}
		for _, p := range paths {
			fmt.Println(p)
		}
		return
	}

	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = experiments.AllNames()
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if err := experiments.RunByName(ctx, name, os.Stdout, *seed, *plot); err != nil {
			fail(name, err)
		}
		fmt.Println()
	}
}

// writeReport writes the report into a temporary file beside path and
// renames it into place only once the run and the close succeeded, so a
// failed or interrupted run leaves neither an empty nor a partial report.
func writeReport(ctx context.Context, path string, seed uint64) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644) // CreateTemp's 0600 would hide the report from other readers
	if err == nil {
		err = experiments.WriteReport(ctx, f, seed)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// fail reports an error, distinguishing user-requested cancellation.
func fail(what string, err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "gpowerbench: %s: interrupted\n", what)
	} else {
		fmt.Fprintf(os.Stderr, "gpowerbench: %s: %v\n", what, err)
	}
	os.Exit(1)
}

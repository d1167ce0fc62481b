package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"gpupower/internal/microbench"
)

// Plotter is implemented by results that can render an ASCII chart.
type Plotter interface {
	Plot() (string, error)
}

// Runner executes one named experiment and writes its textual result.
// When plot is true and the result supports charts, the chart follows the
// text. Cancellation of ctx aborts the experiment at its next measurement
// or fitting checkpoint with an error wrapping ctx.Err().
type Runner func(ctx context.Context, w io.Writer, seed uint64, plot bool) error

// registry maps experiment names to runners; the CLI and tests share it.
var registry = map[string]Runner{
	"table1": func(_ context.Context, w io.Writer, _ uint64, _ bool) error {
		s, err := RenderTable1()
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, s)
		return err
	},
	"table2": func(_ context.Context, w io.Writer, _ uint64, _ bool) error {
		_, err := io.WriteString(w, RenderTable2())
		return err
	},
	"table3": func(_ context.Context, w io.Writer, _ uint64, _ bool) error {
		_, err := io.WriteString(w, RenderTable3())
		return err
	},
	"sources": func(_ context.Context, w io.Writer, _ uint64, _ bool) error {
		_, err := io.WriteString(w, microbench.RenderSources())
		return err
	},
	"fig2": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		r, err := RunFig2(ctx, seed)
		if err != nil {
			return err
		}
		return emit(w, r, plot)
	},
	"fig5": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		r, err := RunFig5(ctx, seed)
		if err != nil {
			return err
		}
		return emit(w, r, plot)
	},
	"fig6": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		r, err := RunFig6(ctx, seed)
		if err != nil {
			return err
		}
		return emit(w, r, plot)
	},
	"fig7": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		r, err := RunFig7(ctx, seed)
		if err != nil {
			return err
		}
		return emit(w, r, plot)
	},
	"fig8": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		r, err := RunFig8(ctx, seed)
		if err != nil {
			return err
		}
		return emit(w, r, plot)
	},
	"fig9": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		r, err := RunFig9(ctx, seed)
		if err != nil {
			return err
		}
		return emit(w, r, plot)
	},
	"fig10": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		r, err := RunFig10(ctx, seed)
		if err != nil {
			return err
		}
		return emit(w, r, plot)
	},
	"convergence": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		r, err := RunConvergence(ctx, seed)
		if err != nil {
			return err
		}
		return emit(w, r, plot)
	},
	"baselines": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		r, err := RunBaselines(ctx, seed)
		if err != nil {
			return err
		}
		return emit(w, r, plot)
	},
	"ablation": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		r, err := RunAblation(ctx, seed)
		if err != nil {
			return err
		}
		return emit(w, r, plot)
	},
	"governor": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		r, err := RunGovernorStudy(ctx, seed)
		if err != nil {
			return err
		}
		return emit(w, r, plot)
	},
	"breakdown": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		for _, dev := range []string{"Titan Xp", "GTX Titan X", "Tesla K40c"} {
			r, err := RunBreakdownTruth(ctx, dev, seed)
			if err != nil {
				return err
			}
			if err := emit(w, r, plot); err != nil {
				return err
			}
		}
		return nil
	},
	"timemodel": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		r, err := RunTimeModel(ctx, seed)
		if err != nil {
			return err
		}
		return emit(w, r, plot)
	},
	"cluster": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		r, err := RunCluster(ctx, seed, 500, 20)
		if err != nil {
			return err
		}
		return emit(w, r, plot)
	},
	"robustness": func(ctx context.Context, w io.Writer, seed uint64, plot bool) error {
		r, err := RunRobustness(ctx, []uint64{seed, seed + 1, seed + 2, seed + 3, seed + 4})
		if err != nil {
			return err
		}
		return emit(w, r, plot)
	},
}

// emit writes a result's text and, when requested and supported, its chart.
func emit(w io.Writer, r fmt.Stringer, plot bool) error {
	if _, err := io.WriteString(w, r.String()); err != nil {
		return err
	}
	if plot {
		if p, ok := r.(Plotter); ok {
			s, err := p.Plot()
			if err != nil {
				return err
			}
			if _, err := io.WriteString(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// Names lists all registered experiments, sorted, in the order the CLI's
// "all" mode uses (paper order first, extensions after).
func Names() []string {
	paper := []string{
		"table1", "table2", "table3",
		"fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"convergence", "baselines", "ablation",
	}
	extra := []string{}
	seen := map[string]bool{}
	for _, n := range paper {
		seen[n] = true
	}
	for n := range registry {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(paper, extra...)
}

// AllNames is the set run by "-exp all" (excludes the expensive seed sweep,
// the verbose source listing, and the fleet-scale cluster simulation).
func AllNames() []string {
	var out []string
	for _, n := range Names() {
		if n == "robustness" || n == "sources" || n == "cluster" {
			continue
		}
		out = append(out, n)
	}
	return out
}

// RunByName executes one named experiment, writing its result to w.
func RunByName(ctx context.Context, name string, w io.Writer, seed uint64, plot bool) error {
	runner, ok := registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return runner(ctx, w, seed, plot)
}

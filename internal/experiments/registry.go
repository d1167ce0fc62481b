package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"gpupower/internal/microbench"
)

// Plotter is implemented by results that can render an ASCII chart.
type Plotter interface {
	Plot() (string, error)
}

// csvWriter is implemented by results that -csv exports.
type csvWriter interface {
	WriteCSV(w io.Writer) error
}

// markdowner is implemented by results that are a section of -report.
type markdowner interface {
	markdown(b *strings.Builder)
}

// mode is the set of batch modes that run an experiment.
type mode uint8

const (
	inAll    mode = 1 << iota // "-exp all"
	inCSV                     // -csv, one <name>.csv per experiment
	inReport                  // -report, one section per experiment
)

// experiment is one row of the table: a name, its driver, and the batch
// modes that run it.
type experiment struct {
	name  string
	run   func(ctx context.Context, seed uint64) (fmt.Stringer, error)
	modes mode
}

// table is the one list of experiments, in the order every mode runs them:
// the paper's tables and figures first, the extensions after. The shared
// rigs draw their sensor noise from one stream per device, so a mode's
// numbers depend on which experiments ran before them: reordering rows, or
// adding a mode to a row, moves every later number of that mode.
var table = []experiment{
	{"table1", func(context.Context, uint64) (fmt.Stringer, error) {
		s, err := RenderTable1()
		return text(s), err
	}, inAll},
	{"table2", func(context.Context, uint64) (fmt.Stringer, error) { return text(RenderTable2()), nil }, inAll},
	{"table3", func(context.Context, uint64) (fmt.Stringer, error) { return text(RenderTable3()), nil }, inAll},
	{"fig2", seeded(RunFig2), inAll | inCSV | inReport},
	{"fig5", seeded(RunFig5), inAll | inCSV | inReport},
	{"fig6", seeded(RunFig6), inAll | inCSV | inReport},
	{"fig7", seeded(RunFig7), inAll | inCSV | inReport},
	{"fig8", seeded(RunFig8), inAll | inCSV | inReport},
	{"fig9", seeded(RunFig9), inAll | inCSV | inReport},
	{"fig10", seeded(RunFig10), inAll | inCSV | inReport},
	{"convergence", seeded(RunConvergence), inAll | inCSV | inReport},
	{"baselines", seeded(RunBaselines), inAll | inCSV | inReport},
	{"ablation", seeded(RunAblation), inAll | inCSV | inReport},
	{"breakdown", func(ctx context.Context, seed uint64) (fmt.Stringer, error) {
		var out breakdowns
		for _, dev := range AllDeviceNames() {
			r, err := RunBreakdownTruth(ctx, dev, seed)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}, inAll},
	{"cluster", func(ctx context.Context, seed uint64) (fmt.Stringer, error) {
		return asResult(RunCluster(ctx, seed, 500, 20))
	}, 0},
	{"governor", seeded(RunGovernorStudy), inAll | inReport},
	{"robustness", func(ctx context.Context, seed uint64) (fmt.Stringer, error) {
		return asResult(RunRobustness(ctx, []uint64{seed, seed + 1, seed + 2, seed + 3, seed + 4}))
	}, 0},
	{"sources", func(context.Context, uint64) (fmt.Stringer, error) { return text(microbench.RenderSources()), nil }, 0},
	{"timemodel", seeded(RunTimeModel), inAll},
}

// text is a rendered, seed-independent result.
type text string

func (t text) String() string { return string(t) }

// breakdowns is the breakdown experiment's result: one device after another.
type breakdowns []*BreakdownTruthResult

func (bs breakdowns) String() string {
	var sb strings.Builder
	for _, r := range bs {
		sb.WriteString(r.String())
	}
	return sb.String()
}

// seeded adapts a RunX driver to a table row.
func seeded[R fmt.Stringer](run func(context.Context, uint64) (R, error)) func(context.Context, uint64) (fmt.Stringer, error) {
	return func(ctx context.Context, seed uint64) (fmt.Stringer, error) {
		return asResult(run(ctx, seed))
	}
}

// asResult converts a driver's typed result to a row's; on error the
// result is a nil interface, not an interface holding a nil pointer.
func asResult[R fmt.Stringer](r R, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// namesIn lists, in table order, the experiments the modes in m all run;
// namesIn(0) lists every experiment.
func namesIn(m mode) []string {
	var out []string
	for _, e := range table {
		if e.modes&m == m {
			out = append(out, e.name)
		}
	}
	return out
}

// Names lists all experiments in table order (paper order first,
// extensions after).
func Names() []string { return namesIn(0) }

// AllNames is the set run by "-exp all" (excludes the expensive seed sweep,
// the verbose source listing, and the fleet-scale cluster simulation).
func AllNames() []string { return namesIn(inAll) }

// RunByName executes one named experiment and writes its text to w. When
// plot is true and the result supports charts, the chart follows the text.
// Cancellation of ctx aborts the experiment at its next measurement or
// fitting checkpoint with an error wrapping ctx.Err().
func RunByName(ctx context.Context, name string, w io.Writer, seed uint64, plot bool) error {
	for _, e := range table {
		if e.name != name {
			continue
		}
		r, err := e.run(ctx, seed)
		if err != nil {
			return err
		}
		out := r.String()
		if p, ok := r.(Plotter); ok && plot {
			s, err := p.Plot()
			if err != nil {
				return err
			}
			out += s
		}
		_, err = io.WriteString(w, out)
		return err
	}
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}

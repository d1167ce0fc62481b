package experiments

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"gpupower/internal/hw"
)

// CSV export: every figure's data series in a machine-readable form, so the
// plots can be regenerated with any plotting tool. One file per artifact.

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// WriteCSV emits the Fig. 2 power curves and utilizations.
func (r *Fig2Result) WriteCSV(w io.Writer) error {
	rows := [][]string{}
	for _, app := range r.Apps {
		for _, curve := range app.Curves {
			for i := range curve.CoreMHz {
				rows = append(rows, []string{
					app.App, f(curve.MemMHz), f(curve.CoreMHz[i]), f(curve.PowerW[i]),
				})
			}
		}
		for _, c := range hw.Components {
			rows = append(rows, []string{
				app.App, "utilization", c.String(), f(app.Utilization[c]),
			})
		}
	}
	return writeCSV(w, []string{"app", "fmem_mhz", "fcore_mhz", "power_w"}, rows)
}

// WriteCSV emits the Fig. 5 per-microbenchmark utilizations and breakdown.
func (r *Fig5Result) WriteCSV(w io.Writer) error {
	header := []string{"benchmark", "collection", "measured_w", "predicted_w", "constant_w"}
	for _, c := range hw.Components {
		header = append(header, "u_"+c.String(), "p_"+c.String()+"_w")
	}
	rows := [][]string{}
	for _, e := range r.Entries {
		row := []string{
			e.Name, string(e.Collection), f(e.Measured), f(e.Breakdown.Total()), f(e.Breakdown.Constant),
		}
		for _, c := range hw.Components {
			row = append(row, f(e.Util[c]), f(e.Breakdown.Component[c]))
		}
		rows = append(rows, row)
	}
	return writeCSV(w, header, rows)
}

// WriteCSV emits the Fig. 6 voltage series.
func (r *Fig6Result) WriteCSV(w io.Writer) error {
	rows := [][]string{}
	for _, d := range r.Devices {
		for i := range d.CoreMHz {
			rows = append(rows, []string{
				d.Device, f(d.CoreMHz[i]), f(d.Predicted[i]), f(d.Measured[i]),
			})
		}
	}
	return writeCSV(w, []string{"device", "fcore_mhz", "vbar_predicted", "vbar_measured"}, rows)
}

// WriteCSV emits the Fig. 7 scatter points.
func (r *Fig7Result) WriteCSV(w io.Writer) error {
	rows := [][]string{}
	for _, d := range r.Devices {
		for _, p := range d.Points {
			rows = append(rows, []string{
				d.Device, p.App, f(p.Config.CoreMHz), f(p.Config.MemMHz),
				f(p.Measured), f(p.Predicted),
			})
		}
	}
	return writeCSV(w, []string{"device", "app", "fcore_mhz", "fmem_mhz", "measured_w", "predicted_w"}, rows)
}

// WriteCSV emits the Fig. 8 per-benchmark signed errors.
func (r *Fig8Result) WriteCSV(w io.Writer) error {
	rows := [][]string{}
	for _, p := range r.Panels {
		for _, e := range p.Errors {
			rows = append(rows, []string{f(p.MemMHz), e.App, f(e.MeanErrorPct)})
		}
		rows = append(rows, []string{f(p.MemMHz), "_panel_mae", f(p.MAE)})
	}
	return writeCSV(w, []string{"fmem_mhz", "app", "mean_error_pct"}, rows)
}

// WriteCSV emits the Fig. 9 series.
func (r *Fig9Result) WriteCSV(w io.Writer) error {
	rows := [][]string{}
	for _, s := range r.Sizes {
		for i := range s.CoreMHz {
			rows = append(rows, []string{
				strconv.Itoa(s.Size), f(s.CoreMHz[i]), f(s.Measured[i]), f(s.Predicted[i]),
				strconv.FormatBool(s.TDPCapped[i]),
			})
		}
	}
	return writeCSV(w, []string{"size", "fcore_mhz", "measured_w", "predicted_w", "tdp_capped"}, rows)
}

// WriteCSV emits the Fig. 10 breakdown panels.
func (r *Fig10Result) WriteCSV(w io.Writer) error {
	header := []string{"fcore_mhz", "fmem_mhz", "app", "measured_w", "predicted_w", "constant_w"}
	for _, c := range hw.Components {
		header = append(header, "p_"+c.String()+"_w")
	}
	rows := [][]string{}
	for _, p := range r.Panels {
		for _, e := range p.Entries {
			row := []string{
				f(p.Config.CoreMHz), f(p.Config.MemMHz), e.App,
				f(e.Measured), f(e.Breakdown.Total()), f(e.Breakdown.Constant),
			}
			for _, c := range hw.Components {
				row = append(row, f(e.Breakdown.Component[c]))
			}
			rows = append(rows, row)
		}
	}
	return writeCSV(w, header, rows)
}

// WriteCSV emits the convergence traces.
func (r *ConvergenceAllResult) WriteCSV(w io.Writer) error {
	rows := [][]string{}
	for _, d := range r.Devices {
		for _, s := range d.Steps {
			rows = append(rows, []string{
				d.Device, strconv.Itoa(s.Iteration), f(s.VoltDelta), f(s.ParamDelta), f(s.SSE),
			})
		}
	}
	return writeCSV(w, []string{"device", "iteration", "volt_delta", "param_delta", "sse"}, rows)
}

// WriteCSV emits the baseline comparison table.
func (r *BaselineResult) WriteCSV(w io.Writer) error {
	rows := [][]string{}
	for _, d := range r.Devices {
		for _, row := range d.Rows {
			rows = append(rows, []string{d.Device, row.Model, f(row.MAE)})
		}
	}
	return writeCSV(w, []string{"device", "model", "mae_pct"}, rows)
}

// WriteCSV emits the ablation table.
func (r *AblationResult) WriteCSV(w io.Writer) error {
	rows := [][]string{}
	for _, row := range r.Rows {
		rows = append(rows, []string{r.Device, row.Variant, f(row.MAE)})
	}
	return writeCSV(w, []string{"device", "variant", "mae_pct"}, rows)
}

// ExportAllCSVs runs the experiments the table marks for CSV, in table
// order, and writes each one's data series to <name>.csv in dir (created if
// needed). Returns the file paths written.
func ExportAllCSVs(ctx context.Context, dir string, seed uint64) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	for _, e := range table {
		if e.modes&inCSV == 0 {
			continue
		}
		r, err := e.run(ctx, seed)
		if err != nil {
			return nil, err
		}
		cw, ok := r.(csvWriter)
		if !ok {
			return nil, fmt.Errorf("experiments: %s has no CSV rendering", e.name)
		}
		path := filepath.Join(dir, e.name+".csv")
		file, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := errors.Join(cw.WriteCSV(file), file.Close()); err != nil {
			return nil, fmt.Errorf("experiments: exporting %s.csv: %w", e.name, err)
		}
		written = append(written, path)
	}
	return written, nil
}

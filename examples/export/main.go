// Export: the sweep engine's machine-readable side. The grid sweeps the
// fleet-N scenario over two fleet sizes and three seeds, a Collect hook
// captures each cell's base-station battery voltage as a named series, and
// the whole summary lands on disk as plot-ready artifacts: a combined CSV
// (cells + per-configuration folds), a JSON document with every series
// point, and one voltage-curve CSV per cell. Everything written here is
// byte-identical no matter how many workers ran the sweep.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/deploy"
	"repro/internal/sweep"
	"repro/internal/trace"
)

func main() {
	dir := "export-out"
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	grid := sweep.Grid{
		Scenarios: []string{"fleet-N"},
		Seeds:     sweep.SeedRange(42, 3),
		Stations:  []int{2, 4},
		Days:      3,
		Collect: func(c sweep.Cell, d *deploy.Deployment) []*trace.Series {
			// Attached before the run: the series gets a t=0 baseline and
			// then a sample every 30 simulated minutes.
			base, _ := d.Station("base-01") // fleet-N's first base station
			volts, _ := trace.Sample(d.Sim, 30*time.Minute, "base-volts", "V",
				func(time.Time) float64 { return base.Node().Bus.VoltageNow() })
			return []*trace.Series{volts}
		},
	}
	sum, err := sweep.Run(grid, 4)
	if err != nil {
		panic(err)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	write := func(name string, encode func(io.Writer) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			panic(err)
		}
		if err := encode(f); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", filepath.Join(dir, name))
	}
	write("sweep.csv", sum.WriteCSV)
	write("sweep.json", sum.WriteJSON)

	// One plottable voltage curve per cell: feed any of these straight
	// into gnuplot/matplotlib for the Fig 5 diurnal shape at fleet scale.
	for _, cr := range sum.Cells {
		volts, ok := cr.SeriesNamed("base-volts")
		if !ok {
			continue
		}
		name := fmt.Sprintf("volts-stations%d-seed%d.csv", cr.Cell.Stations, cr.Cell.Seed)
		write(name, volts.WriteCSV)
		fmt.Printf("  %s: %d samples\n", name, volts.Len())
	}

	fmt.Println("\nmean MB delivered per configuration:")
	for _, gr := range sum.Groups {
		if st, ok := gr.Stat("mb-to-server"); ok {
			fmt.Printf("  %-22s %6.2f ± %.2f MB over %d seeds\n", gr.Label(), st.Mean, st.Stddev, st.N)
		}
	}
}

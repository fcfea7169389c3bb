// Quickstart: build the paper's deployment by scenario name (Fig 3
// architecture — base station, reference station, seven sub-glacial probes,
// Southampton server), run it for two simulated months, and look at the
// fleet Result.
package main

import (
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	d, err := scenario.Build("as-deployed-2008", scenario.Params{Seed: 42})
	if err != nil {
		panic(err)
	}

	// Record the base station's battery voltage for a quick chart.
	base, _ := d.Station("base")
	volts, _ := trace.Sample(d.Sim, 30*time.Minute, "base battery", "V",
		func(time.Time) float64 { return base.Node().Bus.VoltageNow() })

	if err := d.RunDays(60); err != nil {
		panic(err)
	}

	fmt.Println("== two simulated months on Vatnajökull ==")
	fmt.Print(d.Result())

	fmt.Println("\nbase battery voltage, last 4 days (diurnal peak at midday):")
	last4 := volts.Window(d.Sim.Now().Add(-4*24*time.Hour), d.Sim.Now())
	fmt.Print(trace.ASCIIChart(72, 10, last4))

	fmt.Println("\nother registered scenarios:")
	for _, s := range scenario.List() {
		fmt.Printf("  %-18s %s\n", s.Name, s.Description)
	}
}

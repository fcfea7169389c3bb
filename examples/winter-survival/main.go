// Winter survival: the scenario the power management design exists for.
//
// A full year on the ice cap, September to September. Watch the Table II
// power state follow the battery through the dark months — the server's
// min-rule keeping both stations in lock-step — and, if the batteries
// bottom out, the §IV automatic schedule recovery bringing the station back
// with a GPS-corrected clock in state 0.
package main

import (
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/station"
	"repro/internal/trace"
)

func main() {
	d, err := scenario.Build("as-deployed-2008", scenario.Params{Seed: 2008})
	if err != nil {
		panic(err)
	}

	// Track the base station's adopted power state per day.
	base, _ := d.Station("base")
	stateByMonth := map[string][4]int{}
	base.OnReport(func(r station.RunReport) {
		key := r.Date.Format("2006-01")
		counts := stateByMonth[key]
		if r.Effective >= 0 && int(r.Effective) < 4 {
			counts[int(r.Effective)]++
		}
		stateByMonth[key] = counts
	})

	volts, _ := trace.Sample(d.Sim, time.Hour, "base battery", "V",
		func(time.Time) float64 { return base.Node().Bus.VoltageNow() })

	if err := d.RunDays(365); err != nil {
		panic(err)
	}

	fmt.Println("== a year on the ice: base station power states by month ==")
	fmt.Println("month     st0 st1 st2 st3   (days in each Table II state)")
	cur := time.Date(2008, 9, 1, 0, 0, 0, 0, time.UTC)
	for cur.Before(d.Sim.Now()) {
		key := cur.Format("2006-01")
		c := stateByMonth[key]
		fmt.Printf("%s   %3d %3d %3d %3d\n", key, c[0], c[1], c[2], c[3])
		cur = cur.AddDate(0, 1, 0)
	}

	fmt.Println()
	fmt.Print(d.Result())
	fmt.Printf("base power failures: %d\n", base.Node().Bus.FailCount())

	fmt.Println("\ndeep-winter voltage (two weeks in January):")
	jan := volts.Window(
		time.Date(2009, 1, 10, 0, 0, 0, 0, time.UTC),
		time.Date(2009, 1, 24, 0, 0, 0, 0, time.UTC))
	fmt.Print(trace.ASCIIChart(72, 10, jan))
}

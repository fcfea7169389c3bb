// Sweep: the parallel experiment engine. One field season is one data
// point; the engine turns a question ("how much data does a fleet deployed
// on half-charged batteries lose?") into a grid — scenarios x seeds x a
// fault-injection override — runs every cell as its own independent
// deployment on a worker pool, and folds the results per configuration.
// The summary is byte-identical no matter how many workers run it.
package main

import (
	"fmt"

	"repro/internal/deploy"
	"repro/internal/sweep"
)

func main() {
	grid := sweep.Grid{
		Scenarios: []string{"as-deployed-2008", "dual-base"},
		Seeds:     sweep.SeedRange(42, 4),
		Days:      21,
		Overrides: []sweep.Override{
			{Name: "nominal"},
			{Name: "weak-batteries", Apply: func(t *deploy.Topology) {
				// Every station is deployed on a quarter-charged bank: low
				// daily averages, low power states, throttled dGPS uploads.
				t.Faults = append(t.Faults, deploy.Fault{Kind: deploy.FaultBatterySoC, Value: 0.25})
			}},
		},
	}
	sum, err := sweep.Run(grid, 4)
	if err != nil {
		panic(err)
	}
	fmt.Print(sum)

	fmt.Println("\nweak-battery cost per configuration (mean MB delivered over 4 seeds):")
	for i := 0; i+1 < len(sum.Groups); i += 2 {
		nominal, _ := sum.Groups[i].Stat("mb-to-server")
		weak, _ := sum.Groups[i+1].Stat("mb-to-server")
		fmt.Printf("  %-18s %6.2f -> %6.2f MB\n", sum.Groups[i].Scenario, nominal.Mean, weak.Mean)
	}
}

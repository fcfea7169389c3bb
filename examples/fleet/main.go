// Fleet: the composable-topology story. The paper's architecture is
// server-mediated precisely so stations never talk to each other (§III) —
// which means nothing limits it to one base + one reference. This example
// declares an eight-station fleet, breaks one base's chargers, and watches
// the Southampton min-rule hold the whole fleet's dGPS duty cycle down
// with no inter-station link.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/deploy"
)

func main() {
	top := deploy.FleetTopology(42, 8, 3)
	top.Faults = []deploy.Fault{
		{Station: "base-01", Kind: deploy.FaultBatterySoC, Value: 0.25},
	}
	// Declarative per-station overrides: base-01 also loses its chargers,
	// so its low daily averages persist instead of recharging away.
	hw := core.BaseStationConfig("base-01")
	hw.Chargers = nil
	top.Stations[0].Hardware = &hw

	d, err := deploy.Build(top)
	if err != nil {
		panic(err)
	}
	if err := d.RunDays(21); err != nil {
		panic(err)
	}

	fmt.Println("== three weeks, eight stations, one weak battery ==")
	fmt.Print(d.Result())

	fmt.Println("\ndays each healthy station was held below its local state by the min-rule:")
	for _, name := range d.StationNames() {
		if name == "base-01" {
			continue
		}
		st, _ := d.Station(name)
		held := 0
		for _, r := range st.Reports() {
			if r.OverrideFetched && r.Override < r.LocalState && r.Effective == r.Override {
				held++
			}
		}
		fmt.Printf("  %-9s %d/%d\n", name, held, st.Stats().Runs)
	}
	fmt.Println("\n(no base↔base radio link exists: the coordination is entirely the")
	fmt.Println(" server answering each station with the fleet's minimum reported state)")
}

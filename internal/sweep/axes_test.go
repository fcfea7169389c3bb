package sweep

import (
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/weather"
)

// A climate study is an Override that swaps a weather config into the
// topology: a dead-calm dark config must observably change its cell's
// climate while the other override value keeps the scenario's own.
func TestWeatherAxis(t *testing.T) {
	dark := weather.DefaultConfig(0) // seed 0 defers to the cell's topology seed
	// weather.New fills zero fields with the Iceland defaults, so "almost
	// no sun or wind" is the dimmest expressible climate.
	dark.PeakIrradiance = 1
	dark.MeanWind = 0.01
	g := Grid{
		Scenarios: []string{"as-deployed-2008"},
		Seeds:     []int64{3},
		Days:      2,
		Overrides: []Override{
			{Name: "iceland"},
			{Name: "dark-calm", Apply: func(top *deploy.Topology) { top.Weather = dark }},
		},
		Observe: func(c Cell, d *deploy.Deployment) []Metric {
			noon := d.Sim.Now().Add(-12 * time.Hour)
			return []Metric{{Name: "noon-sun", Value: d.WX.Sample(noon).SolarIrradiance}}
		},
	}
	sum, err := Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Cells) != 2 || len(sum.Groups) != 2 {
		t.Fatalf("got %d cells in %d groups, want 2 in 2 (one per climate)", len(sum.Cells), len(sum.Groups))
	}
	sun, _ := sum.Cells[0].Metric("noon-sun")
	darkSun, _ := sum.Cells[1].Metric("noon-sun")
	if sun <= 5 || darkSun > 1 {
		t.Fatalf("climate override not applied per cell: iceland noon sun %v, dark-calm %v", sun, darkSun)
	}
	if got := sum.Cells[1].Cell.Label(); got != "as-deployed-2008 seed=3 ov=dark-calm" {
		t.Fatalf("cell label %q does not carry the override", got)
	}
}

// A probe-lifetime study is an Override that sets the fleet-wide mean
// lifetime: an hour-lived cohort must end a two-day run with fewer probes
// alive than a decades-lived one.
func TestProbeLifetimeAxis(t *testing.T) {
	life := func(d time.Duration) func(*deploy.Topology) {
		return func(top *deploy.Topology) { top.ProbeLifetime = d }
	}
	g := Grid{
		Scenarios: []string{"as-deployed-2008"},
		Seeds:     []int64{5},
		Days:      2,
		Overrides: []Override{
			{Name: "1h", Apply: life(time.Hour)},
			{Name: "50y", Apply: life(50 * 365 * 24 * time.Hour)},
		},
	}
	sum, err := Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Cells) != 2 {
		t.Fatalf("got %d cells, want 2 (one per lifetime)", len(sum.Cells))
	}
	short, _ := sum.Cells[0].Metric("probes-alive")
	long, _ := sum.Cells[1].Metric("probes-alive")
	if short >= long {
		t.Fatalf("hour-lived cohort has %v probes alive, decades-lived %v — lifetime override not applied", short, long)
	}
}

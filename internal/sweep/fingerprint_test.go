package sweep_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/deploy"
	"repro/internal/sweep"
)

// Plan fingerprints key rescache entries, name shard manifests and sit in
// evlog headers, so they must not drift when the planner's code changes
// shape. These literals were taken from the planner as it stood when the
// grid still carried weather and probe-lifetime axes; a refactor that
// moves any of them orphans every cache and log written before it.
func TestFingerprintPinned(t *testing.T) {
	type pin struct {
		name string
		g    sweep.Grid
		want string
	}
	cases := []pin{
		{"plain", sweep.Grid{
			Scenarios: []string{"as-deployed-2008"},
			Seeds:     sweep.SeedRange(1, 2),
		}, "5693d3e599541acd"},
		{"axes", sweep.Grid{
			Scenarios: []string{"fleet-N", "dual-base"},
			Seeds:     sweep.SeedRange(4, 2),
			Stations:  []int{2, 3},
			Probes:    []int{1, 4},
			Overrides: []sweep.Override{
				{Name: "nominal"},
				{Name: "weak", Apply: func(top *deploy.Topology) {
					top.Faults = append(top.Faults, deploy.Fault{Kind: deploy.FaultBatterySoC, Value: 0.25})
				}},
			},
			Days: 3,
		}, "525da3dc5fca4f62"},
	}
	campaignWant := map[string]string{
		"x5-sync-lag":       "05b6760f873751b9",
		"x9-fleet-min-rule": "7e5d436bdd4c85c8",
		"f5-voltage":        "55ace648458ba843",
	}
	if len(campaign.Entries()) != len(campaignWant) {
		t.Fatalf("campaign has %d entries, the pins cover %d", len(campaign.Entries()), len(campaignWant))
	}
	for _, e := range campaign.Entries() {
		cases = append(cases, pin{e.ID, e.Grid(1, 2, 0), campaignWant[e.ID]})
	}
	for _, c := range cases {
		plan, err := sweep.Plan(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := sweep.Fingerprint(c.g, plan); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}

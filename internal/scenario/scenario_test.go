package scenario

import (
	"strings"
	"testing"

	"repro/internal/deploy"
	"repro/internal/probe"
	"repro/internal/station"
)

var builtins = []string{
	"as-deployed-2008", "dual-base", "fleet-N", "probe-heavy", "winter-blackout",
}

func TestBuiltinCatalogue(t *testing.T) {
	names := Names()
	for _, want := range builtins {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("builtin %q missing from List (have %v)", want, names)
		}
	}
	for _, s := range List() {
		if s.Description == "" || s.DefaultDays <= 0 {
			t.Fatalf("scenario %q lacks description or horizon", s.Name)
		}
		got, ok := Lookup(s.Name)
		if !ok || got.Name != s.Name {
			t.Fatalf("Lookup(%q) failed", s.Name)
		}
	}
	// List is sorted by name.
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("List not sorted: %v", names)
		}
	}
}

func TestRegisterRejectsDuplicatesAndBadInput(t *testing.T) {
	if err := Register(Scenario{Name: "as-deployed-2008", Topology: func(Params) deploy.Topology { return deploy.AsDeployed(1) }}); err == nil {
		t.Fatal("duplicate register accepted")
	} else if !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("wrong duplicate error: %v", err)
	}
	if err := Register(Scenario{Name: "", Topology: func(Params) deploy.Topology { return deploy.AsDeployed(1) }}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := Register(Scenario{Name: "no-topology"}); err == nil {
		t.Fatal("nil topology accepted")
	}
}

func TestRegisterAndBuildCustom(t *testing.T) {
	s := Scenario{
		Name:        "test-solo-base",
		Description: "one base, no reference",
		DefaultDays: 7,
		Topology: func(p Params) deploy.Topology {
			return deploy.Topology{Seed: p.Seed, Stations: []deploy.StationSpec{deploy.BaseSpec("solo", 2)}}
		},
	}
	if err := Register(s); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { unregister(s.Name) })
	d, err := Build("test-solo-base", Params{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Stations) != 1 || d.Stations[0].Role() != station.RoleBase {
		t.Fatalf("solo build wrong: %d stations", len(d.Stations))
	}
	if err := d.RunDays(2); err != nil {
		t.Fatal(err)
	}
	if runs := d.Stations[0].Stats().Runs; runs != 2 {
		t.Fatalf("solo base ran %d days", runs)
	}
}

func TestBuildUnknownScenario(t *testing.T) {
	if _, err := Build("no-such-scenario", Params{}); err == nil {
		t.Fatal("unknown scenario built")
	}
}

func TestEveryBuiltinBuildsAndRunsADay(t *testing.T) {
	for _, name := range builtins {
		d, err := Build(name, Params{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := d.RunDays(1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := d.Result()
		if res.Fleet.Stations != len(d.Stations) || res.Fleet.Runs == 0 {
			t.Fatalf("%s: empty result %+v", name, res.Fleet)
		}
	}
}

func TestFleetNParameterisation(t *testing.T) {
	d, err := Build("fleet-N", Params{Seed: 9, Stations: 8, Probes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Stations) != 8 {
		t.Fatalf("fleet-N -stations 8 built %d stations", len(d.Stations))
	}
	bases, refs := 0, 0
	for _, st := range d.Stations {
		switch st.Role() {
		case station.RoleBase:
			bases++
		case station.RoleReference:
			refs++
		}
	}
	if bases != 7 || refs != 1 {
		t.Fatalf("fleet-N shape: %d bases, %d refs", bases, refs)
	}
	var cohort []*probe.Probe
	for _, name := range d.StationNames() {
		cohort = append(cohort, d.StationProbes(name)...)
	}
	if len(cohort) != 14 {
		t.Fatalf("fleet cohort %d probes, want 7 bases x 2", len(cohort))
	}
	// Fleet-wide probe numbering stays unique.
	seen := map[int]bool{}
	for _, p := range cohort {
		if seen[p.ID()] {
			t.Fatalf("duplicate probe ID %d across fleet", p.ID())
		}
		seen[p.ID()] = true
	}
}

// A fleet built by scenario name rolls its stations' days up into one
// fleet result: 3 stations over 2 days is 3 stations and 6 runs.
func TestFleetNResultRollUp(t *testing.T) {
	d, err := Build("fleet-N", Params{Seed: 1, Stations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunDays(2); err != nil {
		t.Fatal(err)
	}
	if res := d.Result(); res.Fleet.Stations != 3 || res.Fleet.Runs != 6 {
		t.Fatalf("fleet roll-up: %d stations, %d runs, want 3 and 6", res.Fleet.Stations, res.Fleet.Runs)
	}
}

func TestWinterBlackoutFaultsApplied(t *testing.T) {
	d, err := Build("winter-blackout", Params{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := d.Station("base")
	ref, _ := d.Station("ref")
	if soc := base.Node().Battery.SoC(); soc > 0.51 {
		t.Fatalf("blackout base starts at soc %.2f, want 0.5", soc)
	}
	// The café mains is gone: the reference fit keeps only its solar panel.
	if got := len(ref.Node().Bus.Chargers()); got != 1 {
		t.Fatalf("blackout reference has %d chargers, want solar only", got)
	}
}

// The -start/-special-first override is named by its canonical values,
// its name parses back into the same mutation, and a bad date is an
// error naming it.
func TestFlagOverride(t *testing.T) {
	if name, apply, err := FlagOverride("", false); name != "" || apply != nil || err != nil {
		t.Fatalf("no flags = %q, %v, %v; want no override", name, apply != nil, err)
	}
	cases := []struct {
		start string
		fixed bool
		name  string
	}{
		{"2008-12-01", false, "start=2008-12-01"},
		{"", true, "special-first"},
		{"2009-06-01", true, "start=2009-06-01,special-first"},
	}
	for _, c := range cases {
		name, apply, err := FlagOverride(c.start, c.fixed)
		if err != nil || name != c.name {
			t.Fatalf("FlagOverride(%q, %v) = %q, %v; want %q", c.start, c.fixed, name, err, c.name)
		}
		parsed, err := ParseFlagOverride(name)
		if err != nil {
			t.Fatalf("ParseFlagOverride(%q): %v", name, err)
		}
		want, got := deploy.AsDeployed(1), deploy.AsDeployed(1)
		apply(&want)
		parsed(&got)
		if !want.Start.Equal(got.Start) || want.Stations[0].Runtime.SpecialFirst != got.Stations[0].Runtime.SpecialFirst {
			t.Errorf("%s: parsed override mutates differently from the original", name)
		}
		if c.start != "" && want.Start.Format("2006-01-02") != c.start {
			t.Errorf("%s: start %v, want %s", name, want.Start, c.start)
		}
		for _, sp := range want.Stations {
			if sp.Runtime.SpecialFirst != c.fixed {
				t.Errorf("%s: station %s special-first %v, want %v", name, sp.Name, sp.Runtime.SpecialFirst, c.fixed)
			}
		}
	}
	for _, bad := range []string{"", "flags", "special-first,start=2008-12-01", "start=2008-12-01,start=2008-12-01",
		"start=2008-12-1", "start=", "special-first,special-first", "start=2008-12-01,x"} {
		if _, err := ParseFlagOverride(bad); err == nil {
			t.Errorf("ParseFlagOverride(%q) accepted a non-canonical name", bad)
		}
	}
	if _, _, err := FlagOverride("2008-13-01", false); err == nil || !strings.Contains(err.Error(), `"2008-13-01"`) {
		t.Errorf("bad start date error %v does not name the date", err)
	}
}

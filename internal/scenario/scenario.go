// Package scenario is a named catalogue of deployment topologies. A
// Scenario binds a name to a parameterised Topology plus a default horizon
// and any injected faults, so tools (cmd/glacsim), examples and benchmarks
// can all run the same deployments by name instead of re-wiring fleets by
// hand. The package registry is seeded with the built-in catalogue in
// builtin.go; callers may Register their own.
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/deploy"
)

// Params parameterises a scenario build. Zero values select the
// scenario's own defaults.
type Params struct {
	// Seed drives every stochastic process.
	Seed int64
	// Stations sets the fleet size for parameterised scenarios (fleet-N).
	Stations int
	// Probes overrides the per-base cohort size.
	Probes int
	// Days overrides the scenario's default horizon (used by callers that
	// honour Horizon; Build itself does not run the deployment).
	Days int
}

// Horizon returns the run length in days: p.Days if set, else the
// scenario default.
func (s Scenario) Horizon(p Params) int {
	if p.Days > 0 {
		return p.Days
	}
	return s.DefaultDays
}

// Scenario is one named, registered deployment shape.
type Scenario struct {
	// Name is the registry key (e.g. "as-deployed-2008").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// DefaultDays is the suggested run horizon.
	DefaultDays int
	// Topology builds the declarative fleet for the given parameters.
	Topology func(p Params) deploy.Topology
}

var registry = struct {
	sync.Mutex
	byName map[string]Scenario
}{byName: make(map[string]Scenario)}

// Register adds a scenario to the catalogue. Registering an empty name, a
// nil topology or a name already taken is an error.
func Register(s Scenario) error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if s.Topology == nil {
		return fmt.Errorf("scenario %q: nil topology", s.Name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[s.Name]; dup {
		return fmt.Errorf("scenario %q: already registered", s.Name)
	}
	registry.byName[s.Name] = s
	return nil
}

// MustRegister is Register for the built-in catalogue; it panics on error.
func MustRegister(s Scenario) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// unregister removes a scenario; test hook only.
func unregister(name string) {
	registry.Lock()
	defer registry.Unlock()
	delete(registry.byName, name)
}

// Lookup returns the named scenario.
func Lookup(name string) (Scenario, bool) {
	registry.Lock()
	defer registry.Unlock()
	s, ok := registry.byName[name]
	return s, ok
}

// List returns every registered scenario sorted by name.
func List() []Scenario {
	registry.Lock()
	defer registry.Unlock()
	out := make([]Scenario, 0, len(registry.byName))
	for _, s := range registry.byName {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	ss := List()
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.Name
	}
	return names
}

// Build looks a scenario up and wires its deployment.
func Build(name string, p Params) (*deploy.Deployment, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario %q: not registered (have: %v)", name, Names())
	}
	return deploy.Build(s.Topology(p))
}

// FlagOverride is the topology override behind glacsim's -start and
// -special-first flags, which an event log header records too: start
// (YYYY-MM-DD, "" keeps the scenario's own) moves t0, and specialFirst
// applies the §VI special-before-upload fix on every station. The name
// lists the values that are set, canonically ("start=2008-12-01",
// "special-first" or both joined by a comma), so a sweep fingerprint —
// which hashes override names — tells flag sets apart. Neither flag set
// gives "" and a nil apply.
func FlagOverride(start string, specialFirst bool) (name string, apply func(*deploy.Topology), err error) {
	var parts []string
	var t0 time.Time
	if start != "" {
		if t0, err = time.Parse("2006-01-02", start); err != nil {
			return "", nil, fmt.Errorf("start date %q: %w", start, err)
		}
		parts = append(parts, "start="+t0.Format("2006-01-02"))
	}
	if specialFirst {
		parts = append(parts, "special-first")
	}
	if len(parts) == 0 {
		return "", nil, nil
	}
	return strings.Join(parts, ","), func(top *deploy.Topology) {
		if !t0.IsZero() {
			top.Start = t0
		}
		if specialFirst {
			// Partial runtime overrides merge with the role defaults in Build.
			for i := range top.Stations {
				top.Stations[i].Runtime.SpecialFirst = true
			}
		}
	}, nil
}

// ParseFlagOverride rebuilds a FlagOverride from its name, the way a sweep
// worker reattaches an override whose Apply cannot cross the wire. Only a
// canonical name parses.
func ParseFlagOverride(name string) (func(*deploy.Topology), error) {
	var start string
	specialFirst := false
	for _, part := range strings.Split(name, ",") {
		if v, ok := strings.CutPrefix(part, "start="); ok {
			start = v
		}
		specialFirst = specialFirst || part == "special-first"
	}
	canon, apply, err := FlagOverride(start, specialFirst)
	if err != nil {
		return nil, err
	}
	if apply == nil || canon != name {
		return nil, fmt.Errorf("scenario: %q is not a flag override name", name)
	}
	return apply, nil
}

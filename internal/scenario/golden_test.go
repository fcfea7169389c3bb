package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden trace files")

// goldenRuns pins every built-in scenario at a fixed seed and horizon. The
// horizons are short enough to keep the suite fast but long enough for each
// scenario's distinctive behaviour (probe deaths, blackout depletion, fleet
// min-rule traffic) to show up in the totals. The 900-day probe-heavy row
// is the one run long enough for a probe's 20000-reading store to fill
// (hourly sampling fills it after 833 days), so it pins the overflow rule.
// A row's golden file is named after its scenario unless file says
// otherwise.
var goldenRuns = []struct {
	name string
	seed int64
	days int
	file string
}{
	{"as-deployed-2008", 42, 45, ""},
	{"dual-base", 42, 30, ""},
	{"fleet-N", 42, 14, ""},
	{"probe-heavy", 42, 21, ""},
	{"probe-heavy", 42, 900, "probe-heavy-900d"},
	{"winter-blackout", 42, 60, ""},
}

// TestGoldenTraces pins Result.String() of every built-in scenario, byte
// for byte — the determinism promise of DESIGN.md §3 as a regression
// harness. Any change to event ordering, the RNG stream layout, a hardware
// model or the Result format shows up here as an exact-string diff.
// Regenerate deliberately with:
//
//	go test ./internal/scenario -run TestGoldenTraces -update
func TestGoldenTraces(t *testing.T) {
	for _, g := range goldenRuns {
		file := g.name
		if g.file != "" {
			file = g.file
		}
		t.Run(file, func(t *testing.T) {
			d, err := Build(g.name, Params{Seed: g.seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.RunDays(g.days); err != nil {
				t.Fatal(err)
			}
			got := d.Result().String()
			path := filepath.Join("testdata", "golden", file+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden trace (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s (seed %d, %d days) diverged from its golden trace.\n--- got:\n%s--- want:\n%s"+
					"If the change is intentional, regenerate with: go test ./internal/scenario -run TestGoldenTraces -update",
					g.name, g.seed, g.days, got, want)
			}
		})
	}
}

package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/distrib"
	"repro/internal/evlog"
	"repro/internal/rescache"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// flagCases are -start/-special-first combinations that each change
// metrics at 3 days on the flagGrid scenarios.
var flagCases = []struct {
	start string
	fixed bool
}{
	{"2008-12-01", false},
	{"", true},
	{"2008-12-01", true},
}

// flagGrid is the grid `glacsim -sweep -scenario dual-base,as-deployed-2008
// -seed 42 -seeds 2 -days 3` builds with the given flags.
func flagGrid(t *testing.T, start string, fixed bool) (sweep.Grid, string) {
	t.Helper()
	g, hooks, err := sweepGrid("dual-base,as-deployed-2008", scenario.Params{Seed: 42, Days: 3}, 2, start, fixed)
	if err != nil {
		t.Fatal(err)
	}
	return g, hooks
}

// runJSON runs shard i/m of g and returns its summary as the json
// encoding -out json writes.
func runJSON(t *testing.T, g sweep.Grid, r sweep.Runner, i, m int) []byte {
	t.Helper()
	sum, err := sweep.RunShardWith(g, r, i, m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Sweeps that differ only in -start must not share cache entries or merge
// with each other: the flag values are part of the plan's identity.
func TestFlagSweepsDoNotShareCacheOrMerge(t *testing.T) {
	gA, _ := flagGrid(t, "2008-12-01", false)
	gB, _ := flagGrid(t, "2009-06-01", false)
	cache, err := rescache.Open(t.TempDir(), rescache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex := &cliutil.Exec{Workers: 2, Cache: cache}
	a := runJSON(t, gA, ex.Runner(""), 0, 1)
	hits := cache.Stats().Hits
	warmB := runJSON(t, gB, ex.Runner(""), 0, 1)
	if got := cache.Stats().Hits - hits; got != 0 {
		t.Errorf("the -start 2009-06-01 sweep took %d cache hits from the 2008-12-01 one, want 0", got)
	}
	freshB := runJSON(t, gB, sweep.LocalRunner{Workers: 2}, 0, 1)
	if !bytes.Equal(warmB, freshB) {
		t.Error("the cached -start 2009-06-01 sweep differs from a fresh one")
	}
	if bytes.Equal(a, freshB) {
		t.Fatal("the two start dates give identical sweeps; the test proves nothing")
	}

	shard := func(g sweep.Grid, i int) *sweep.Summary {
		sum, err := sweep.RunShardWith(g, sweep.LocalRunner{}, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	if _, err := sweep.MergeSummaries(shard(gA, 0), shard(gB, 1)); err == nil {
		t.Error("shards of sweeps at different -start dates merged")
	}
}

// A flagged sweep gives byte-identical JSON on a remote worker, which
// rebuilds the override through the glacsim/flags hook set, and on the
// local pool; and the override really changes the run, unlike a
// label-only override of the same name.
func TestFlagSweepRemoteMatchesLocal(t *testing.T) {
	srv := httptest.NewServer(&distrib.Worker{MaxShards: 2})
	defer srv.Close()
	remote := &cliutil.Exec{Remote: []string{srv.URL}}
	for _, fc := range flagCases {
		g, hooks := flagGrid(t, fc.start, fc.fixed)
		name := g.Overrides[0].Name
		if hooks != flagsHookSet {
			t.Fatalf("%s: hook set %q, want %q", name, hooks, flagsHookSet)
		}
		local := runJSON(t, g, sweep.LocalRunner{Workers: 2}, 0, 1)
		if got := runJSON(t, g, remote.Runner(hooks), 0, 1); !bytes.Equal(got, local) {
			t.Errorf("%s: remote sweep differs from the local one", name)
		}
		label := g
		label.Overrides = []sweep.Override{{Name: name}}
		if bytes.Equal(runJSON(t, label, sweep.LocalRunner{Workers: 2}, 0, 1), local) {
			t.Errorf("%s: the override changes no metric", name)
		}
	}
}

// Logs recorded with -start and -special-first — by a single run's
// -record and by a sweep's -record-dir — replay with zero divergences:
// the header flags rebuild the same override.
func TestFlaggedRecordingsReplay(t *testing.T) {
	for _, fc := range flagCases {
		dir := t.TempDir()
		hdr := evlog.Header{Scenario: "dual-base", Seed: 42, Days: 3, Start: fc.start, SpecialFirst: fc.fixed}
		d, days, err := evlog.Rebuild(hdr)
		if err != nil {
			t.Fatal(err)
		}
		single := filepath.Join(dir, "single.evlog")
		f, err := os.Create(single)
		if err != nil {
			t.Fatal(err)
		}
		w, err := evlog.NewWriter(f, hdr)
		if err != nil {
			t.Fatal(err)
		}
		w.Attach(d.Sim)
		if err := d.RunDays(days); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := runReplay(single); err != nil {
			t.Errorf("start=%q special-first=%v: single-run log: %v", fc.start, fc.fixed, err)
		}

		g, hooks := flagGrid(t, fc.start, fc.fixed)
		ex := &cliutil.Exec{RecordDir: filepath.Join(dir, "rec")}
		if err := ex.Record(&g, "", evlog.Header{Start: fc.start, SpecialFirst: fc.fixed}); err != nil {
			t.Fatal(err)
		}
		runJSON(t, g, ex.Runner(hooks), 0, 1)
		logs, err := filepath.Glob(filepath.Join(dir, "rec", "cell-*.evlog"))
		if err != nil {
			t.Fatal(err)
		}
		if len(logs) != 4 {
			t.Fatalf("sweep recorded %d cell logs, want 4", len(logs))
		}
		for _, path := range logs {
			if err := runReplay(path); err != nil {
				t.Errorf("start=%q special-first=%v: %v", fc.start, fc.fixed, err)
			}
		}
	}
}

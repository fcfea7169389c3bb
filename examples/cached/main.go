// Cached: the incremental-campaign loop in one program. A sweep grid runs
// cold through a LocalRunner backed by the on-disk result cache, then the
// identical grid runs again warm: the second pass serves every cell from
// disk — zero simulations, counted by an Observe hook that runs once per
// simulated cell — and its summary is byte-for-byte the first one's. A
// third pass runs a *different* grid to show the isolation rule: entries
// key on the whole plan fingerprint, so a changed campaign never aliases
// into the cached one. Finally one cache entry is deliberately poisoned to
// show the verification chain refusing it and re-simulating instead of
// serving corrupt bytes.
package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/deploy"
	"repro/internal/rescache"
	"repro/internal/sweep"
)

func main() {
	dir, err := os.MkdirTemp("", "glacsweb-cache-*")
	if err != nil {
		panic(err)
	}
	defer func() { _ = os.RemoveAll(dir) }()

	// Observe runs once per simulated cell and never for a cache hit, so
	// it counts the simulations themselves rather than inferring them from
	// the cache's miss counter.
	var simulated atomic.Int64
	grid := sweep.Grid{
		Scenarios: []string{"as-deployed-2008", "dual-base"},
		Seeds:     sweep.SeedRange(42, 3),
		Days:      7,
		Observe: func(sweep.Cell, *deploy.Deployment) []sweep.Metric {
			simulated.Add(1)
			return nil
		},
	}

	run := func(label string, g sweep.Grid) ([]byte, rescache.Stats, int64) {
		// A fresh Open per pass plays the role of a fresh process: only
		// the files on disk carry state between campaigns.
		cache, err := rescache.Open(dir, rescache.Options{})
		if err != nil {
			panic(err)
		}
		before := simulated.Load()
		sum, err := sweep.RunShardWith(g, sweep.LocalRunner{Cache: cache}, 0, 1)
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := sum.WriteJSON(&buf); err != nil {
			panic(err)
		}
		st, n := cache.Stats(), simulated.Load()-before
		fmt.Printf("%-30s %2d hits  %2d misses  %2d simulated  %2d stored\n",
			label, st.Hits, st.Misses, n, st.Stores)
		return buf.Bytes(), st, n
	}

	cold, _, _ := run("cold campaign:", grid)
	warm, _, warmSimulated := run("warm re-run:", grid)
	switch {
	case warmSimulated != 0:
		fmt.Printf("!! warm re-run simulated %d cells\n", warmSimulated)
	case !bytes.Equal(cold, warm):
		fmt.Println("!! warm artifact differs from cold")
	default:
		fmt.Println("   -> warm re-run simulated ZERO cells, artifact byte-identical")
	}

	// Snapshot this campaign's entries now, before another campaign adds
	// its own: the poison step below must hit one of *these* cells.
	entries, err := filepath.Glob(filepath.Join(dir, "v*", "*", "*.cell"))
	if err != nil || len(entries) == 0 {
		panic(fmt.Sprintf("no cache entries to poison: %v", err))
	}

	// A different grid is a different campaign: entries key on the plan
	// fingerprint, so none of the cached cells can alias into this one.
	wider := grid
	wider.Seeds = sweep.SeedRange(42, 5)
	_, widerStats, _ := run("different campaign (5 seeds):", wider)
	if widerStats.Hits != 0 {
		fmt.Println("!! a different campaign was served another campaign's cells")
	} else {
		fmt.Printf("   -> different fingerprint, zero cross-campaign hits\n\n")
	}

	// Poison one entry on disk and re-run: the digest check refuses it,
	// the cell re-simulates, and the output is still byte-identical.
	data, err := os.ReadFile(entries[0])
	if err != nil {
		panic(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("poisoned %s\n", filepath.Base(entries[0]))
	poisoned, _, pSimulated := run("campaign over poisoned cache:", grid)
	if bytes.Equal(cold, poisoned) && pSimulated == 1 {
		fmt.Println("   -> poisoned entry refused and re-simulated; artifact still byte-identical")
	} else {
		fmt.Println("!! poisoned cache changed the output")
	}
}

// Command glacsim runs a simulated Glacsweb deployment — the paper's
// two-station system or any registered fleet scenario — and prints daily
// run reports plus a deterministic fleet summary.
//
// Usage:
//
//	glacsim -days 120 -seed 42 [-scenario as-deployed-2008] [-v]
//	glacsim -scenario fleet-N -stations 8 -days 30
//	glacsim -sweep -scenario fleet-N,dual-base -seeds 8 -workers 4
//	glacsim -sweep -scenario fleet-N -seeds 8 -out csv -o sweep.csv
//	glacsim -sweep -scenario fleet-N -seeds 8 -shard 0/3 -out json -o shard0.json
//	glacsim -merge -out json -o merged.json shard0.json shard1.json shard2.json
//	glacsim -list
//
// With -sweep the scenario flag takes a comma-separated list and the tool
// runs the scenario x seed grid on the parallel sweep engine, printing the
// per-cell results and per-configuration mean/stddev/min/max. -out selects
// the encoding (text, csv, cells-csv, groups-csv or json) and -o redirects
// it to a file. The summary is byte-identical for any -workers value in
// every encoding.
//
// -shard i/m runs only shard i of m of the grid (cells whose global index
// ≡ i mod m) and writes a partial summary; encode it as json — that
// document is the shard wire format. -merge reads any number of partial
// summary files, validates they shard one grid (same plan fingerprint, no
// overlap, nothing missing) and folds them into the full summary,
// byte-identical to a single-process run in every encoding.
//
// The sweep also distributes live: `glacsim -worker -listen ADDR` serves
// shards over HTTP (bounded concurrency, /healthz), and `glacsim -sweep
// -remote host:port,host:port` executes the grid on such a pool —
// requeueing shards from dead or failing workers — with output still
// byte-identical to the local run. The worker registers the campaign hook
// sets too, so `glacreport -campaign -remote` drives the same daemons.
//
// A persistent result cache (-cache DIR, defaulting to $GLACSWEB_CACHE;
// -no-cache disables it, -cache-max-mb bounds it with LRU eviction)
// serves already-simulated cells from disk, so re-running an identical
// grid simulates nothing; `glacsim -worker -cache DIR` lets a worker pool
// warm one shared cache. Entries are verified on read — content digest,
// plan fingerprint, format version — so a hit is byte-identical to a
// fresh simulation or it is re-simulated.
//
// Event record/replay (DESIGN.md §12): `-record FILE` writes the run's
// full executed-event stream as a compact, digest-chained event log;
// `-replay FILE` rebuilds the run from the log's header, re-executes it
// and verifies step-for-step equivalence, failing with the exact event
// index, name and simulated instant of the first divergence; `-evdiff A
// B` compares two logs and reports their first divergent event with
// context. With -sweep, `-record-dir DIR` records every cell's log as
// DIR/cell-NNNN.evlog (named by global plan index), byte-identical for
// any -workers value — the event-level sharpening of the summary
// determinism guarantee.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"strings"
	"time"

	_ "repro/internal/campaign" // register the campaign hook sets in -worker binaries
	"repro/internal/cliutil"
	"repro/internal/deploy"
	"repro/internal/distrib"
	"repro/internal/evlog"
	"repro/internal/rescache"
	"repro/internal/scenario"
	"repro/internal/station"
	"repro/internal/sweep"
	"repro/internal/trace"
)

const usageLine = "usage: glacsim [-scenario NAME] [-days N] [-v] [-record FILE] | " +
	"-sweep [-shard i/m] [-remote HOST:PORT,...] [-cache DIR|-no-cache] [-record-dir DIR] [-out text|csv|cells-csv|groups-csv|json] [-o FILE] | " +
	"-merge [-out ENC] [-o FILE] FILE... | -replay FILE | -evdiff FILE FILE | " +
	"-worker -listen ADDR [-max-shards N] [-cache DIR] | -list"

// usageErrorf marks a bad flag combination: main prints the usage line
// and exits 2, distinct from runtime failures.
var usageErrorf = cliutil.Usagef

// flagsOutside lists explicitly-set flags outside a mode's allowlist.
var flagsOutside = cliutil.FlagsOutside

func main() {
	if err := run(); err != nil {
		cliutil.Fail("glacsim", usageLine, err)
	}
}

func run() error {
	var (
		scen     = flag.String("scenario", "as-deployed-2008", "registered scenario name (see -list)")
		list     = flag.Bool("list", false, "list registered scenarios and exit")
		days     = flag.Int("days", 0, "simulated days to run (0 = the scenario's default horizon)")
		stations = flag.Int("stations", 0, "fleet size for parameterised scenarios (fleet-N)")
		csvPath  = flag.String("csv", "", "write the first base station's voltage trace as CSV")
		seed     = flag.Int64("seed", 42, "simulation seed")
		probes   = flag.Int("probes", 0, "per-base probe cohort size (0 = scenario default)")
		start    = flag.String("start", "", "start date override (YYYY-MM-DD; empty = scenario default)")
		verbose  = flag.Bool("v", false, "print every daily run report")
		fixed    = flag.Bool("special-first", false, "apply the §VI special-before-upload fix on every station")
		doSweep  = flag.Bool("sweep", false, "run a scenario x seed sweep grid on the parallel engine")
		seeds    = flag.Int("seeds", 4, "sweep: consecutive seeds starting at -seed")
		workers  = flag.Int("workers", 0, "sweep: worker pool size (0 = GOMAXPROCS)")
		shard    = flag.String("shard", "", "sweep: run only shard i/m of the grid and write a partial summary")
		merge    = flag.Bool("merge", false, "merge partial summary files (json shard wire format) into the full summary")
		out      = flag.String("out", "text", "output encoding: text, csv, cells-csv, groups-csv or json")
		outFile  = flag.String("o", "", "write the output to a file instead of stdout")
		worker   = flag.Bool("worker", false, "serve sweep shards to remote coordinators over HTTP")
		listen   = flag.String("listen", "", "worker: listen address (e.g. :8091 or 127.0.0.1:0)")
		maxShard = flag.Int("max-shards", 0, "worker: concurrent shard bound (0 = 2)")
		remote   = flag.String("remote", "", "sweep: comma-separated worker addresses to execute the grid on")
		cacheDir = flag.String("cache", "", "result cache directory (default $"+cliutil.CacheEnv+"): serve already-simulated cells from disk")
		noCache  = flag.Bool("no-cache", false, "ignore $"+cliutil.CacheEnv+" and simulate every cell")
		cacheMB  = flag.Int("cache-max-mb", 0, "result cache size bound in MiB, LRU-evicted (0 = unbounded)")
		record   = flag.String("record", "", "record the run's event log to a file (single runs)")
		recDir   = flag.String("record-dir", "", "sweep: record each cell's event log into this directory (implies -no-cache)")
		replay   = flag.String("replay", "", "replay a recorded event log and verify step-for-step equivalence")
		evdiff   = flag.Bool("evdiff", false, "diff two recorded event logs: glacsim -evdiff A B")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	switch *out {
	case "text", "csv", "cells-csv", "groups-csv", "json":
	default:
		return usageErrorf("unknown -out encoding %q (text, csv, cells-csv, groups-csv or json)", *out)
	}
	// -o without an explicit encoding silently wrote text files that look
	// like failed CSV exports; make the intent explicit.
	if set["o"] && !set["out"] {
		return usageErrorf("-o needs an explicit -out encoding")
	}

	if *merge {
		// Allowlist, not denylist: any flag outside the merge surface is a
		// mistake — including flags added in the future — never silently
		// ignored.
		if bad := flagsOutside(set, "merge", "out", "o"); len(bad) > 0 {
			return usageErrorf("-%s does not apply to -merge", bad[0])
		}
		if flag.NArg() == 0 {
			return usageErrorf("-merge needs at least one partial summary file")
		}
		return runMerge(flag.Args(), *out, *outFile)
	}
	if *evdiff {
		if bad := flagsOutside(set, "evdiff"); len(bad) > 0 {
			return usageErrorf("-%s does not apply to -evdiff", bad[0])
		}
		if flag.NArg() != 2 {
			return usageErrorf("-evdiff needs exactly two event log files")
		}
		return runEvdiff(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 {
		return usageErrorf("unexpected arguments %q (only -merge and -evdiff read files)", flag.Args())
	}
	if *replay != "" {
		// Everything a replay needs — scenario, seed, horizon, overrides —
		// comes from the log's own header; any other flag is a confused
		// invocation.
		if bad := flagsOutside(set, "replay"); len(bad) > 0 {
			return usageErrorf("-%s does not apply to -replay", bad[0])
		}
		return runReplay(*replay)
	}

	if *worker {
		// Allowlist: the worker daemon serves until killed; any other
		// flag on its command line is a confused invocation.
		if bad := flagsOutside(set, "worker", "listen", "max-shards", "workers",
			"cache", "no-cache", "cache-max-mb"); len(bad) > 0 {
			return usageErrorf("-%s does not apply to -worker", bad[0])
		}
		if *listen == "" {
			return usageErrorf("-worker needs -listen ADDR")
		}
		cache, err := openCache(*cacheDir, *noCache, *cacheMB)
		if err != nil {
			return err
		}
		return runWorker(*listen, *maxShard, *workers, cache)
	}
	if set["listen"] || set["max-shards"] {
		return usageErrorf("-listen and -max-shards configure the worker daemon; use them with -worker")
	}
	remoteWorkers, err := cliutil.ParseWorkerList(*remote)
	if err != nil {
		return usageErrorf("-remote: %v", err)
	}

	if *list {
		// -list is its own mode: combining it with run or sweep flags
		// (even a malformed -shard) must not be silently ignored.
		if bad := flagsOutside(set, "list"); len(bad) > 0 {
			return usageErrorf("-%s does not apply to -list", bad[0])
		}
		for _, s := range scenario.List() {
			fmt.Printf("%-18s %3dd  %s\n", s.Name, s.DefaultDays, s.Description)
		}
		return nil
	}

	if *days < 0 || *stations < 0 || *probes < 0 {
		return usageErrorf("-days, -stations and -probes must be >= 0")
	}
	shardI, shardM, err := parseShard(*shard)
	if err != nil {
		return err
	}
	if *doSweep {
		if set["workers"] && len(remoteWorkers) > 0 {
			return usageErrorf("-workers sizes the in-process pool; with -remote the workers size their own")
		}
		if set["record"] {
			return usageErrorf("-record records single runs; use -record-dir with -sweep")
		}
		if *recDir != "" && len(remoteWorkers) > 0 {
			return usageErrorf("-record-dir records local execution; it cannot reach -remote workers")
		}
		var cache *rescache.DiskCache
		if len(remoteWorkers) > 0 {
			// The workers consult their own caches (glacsim -worker -cache);
			// an explicit coordinator-side -cache would silently do nothing.
			if set["cache"] {
				return usageErrorf("-cache caches local execution; with -remote give the workers -cache instead")
			}
		} else if *recDir != "" {
			// A cache hit serves a cell without simulating it, so there would
			// be no events to record; a recording run simulates every cell.
			if set["cache"] {
				return usageErrorf("-record-dir needs every cell simulated; it cannot combine with -cache")
			}
		} else if cache, err = openCache(*cacheDir, *noCache, *cacheMB); err != nil {
			return err
		}
		return runSweep(*scen, *seed, *seeds, *workers, *days, *stations, *probes,
			*start, *fixed, *csvPath, *verbose, shardI, shardM, set["shard"], remoteWorkers, cache, *recDir, *out, *outFile)
	}
	if set["shard"] {
		return usageErrorf("-shard slices sweep grids; use it with -sweep")
	}
	if set["record-dir"] {
		return usageErrorf("-record-dir records sweep cells; use it with -sweep (single runs take -record FILE)")
	}
	if len(remoteWorkers) > 0 {
		return usageErrorf("-remote dispatches sweep grids; use it with -sweep")
	}
	if set["cache"] || set["no-cache"] || set["cache-max-mb"] {
		return usageErrorf("-cache, -no-cache and -cache-max-mb apply to -sweep and -worker runs")
	}
	if *out != "text" || *outFile != "" {
		return usageErrorf("-out and -o encode sweep summaries; use them with -sweep or -merge")
	}
	if *record != "" && *csvPath != "" {
		// The -csv sampler schedules its own ticker events, which a replay —
		// rebuilt from nothing but the log's header — could never reproduce.
		return usageErrorf("-record captures replayable runs; it cannot combine with -csv")
	}
	s, ok := scenario.Lookup(*scen)
	if !ok {
		return fmt.Errorf("unknown scenario %q (try -list)", *scen)
	}
	params := scenario.Params{Seed: *seed, Stations: *stations, Probes: *probes, Days: *days}
	horizon := s.Horizon(params)
	top := s.Topology(params)
	apply, err := flagOverride(*start, *fixed)
	if err != nil {
		return err
	}
	if apply != nil {
		apply(&top)
	}

	d, err := deploy.Build(top)
	if err != nil {
		return err
	}

	var rec *evlog.Writer
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			return fmt.Errorf("create event log: %w", err)
		}
		defer func() { _ = f.Close() }()
		// The header carries everything -replay needs to rebuild this run:
		// the flag surface is exactly the rebuildable surface.
		rec, err = evlog.NewWriter(f, evlog.Header{
			Scenario: s.Name, Seed: *seed, Stations: *stations, Probes: *probes,
			Days: horizon, Start: *start, SpecialFirst: *fixed,
		})
		if err != nil {
			return err
		}
		rec.Attach(d.Sim)
	}

	var volts *trace.Series
	if *csvPath != "" {
		if d.Base == nil {
			return fmt.Errorf("-csv needs a base station in the scenario")
		}
		volts, _ = trace.Sample(d.Sim, 10*time.Minute, "base_volts", "V",
			func(time.Time) float64 { return d.Base.Node().Bus.VoltageNow() })
	}

	if *verbose {
		for _, st := range d.Stations {
			name := st.Name()
			st.OnReport(func(r station.RunReport) { printReport(name, r) })
		}
	}

	if err := d.RunDays(horizon); err != nil {
		return err
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			return err
		}
	}

	fmt.Printf("=== scenario %s: %d simulated days ===\n", s.Name, horizon)
	fmt.Print(d.Result())
	if rec != nil {
		fmt.Printf("event log (%d events) written to %s\n", rec.Records(), *record)
	}
	if volts != nil {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fmt.Errorf("create csv: %w", err)
		}
		defer func() { _ = f.Close() }()
		if err := volts.WriteCSV(f); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
		fmt.Printf("voltage trace (%d samples) written to %s\n", volts.Len(), *csvPath)
	}
	return nil
}

// parseShard parses the -shard flag ("i/m"; "" = the whole grid) into a
// usage error on malformed input.
func parseShard(s string) (i, m int, err error) {
	i, m, err = sweep.ParseShardSpec(s)
	if err != nil {
		return 0, 0, usageErrorf("-shard: %v", err)
	}
	return i, m, nil
}

// flagOverride turns the -start/-special-first flags into one topology
// mutation shared by the single-run and sweep paths; nil when neither flag
// is set.
func flagOverride(start string, fixed bool) (func(*deploy.Topology), error) {
	if start == "" && !fixed {
		return nil, nil
	}
	var t0 time.Time
	if start != "" {
		var err error
		if t0, err = time.Parse("2006-01-02", start); err != nil {
			return nil, fmt.Errorf("bad -start: %w", err)
		}
	}
	return func(top *deploy.Topology) {
		if !t0.IsZero() {
			top.Start = t0
		}
		if fixed {
			// Partial runtime overrides merge with the role defaults in Build.
			for i := range top.Stations {
				top.Stations[i].Runtime.SpecialFirst = true
			}
		}
	}, nil
}

// runSweep fans the scenario list x seed range out over the sweep engine —
// the whole grid, or only shard shardI of shardM when -shard was given
// (0/1 is still a shard run, so scripts parameterised over the shard
// count work at m=1) — locally or, with -remote, across a worker pool —
// and writes the summary in the requested encoding.
func runSweep(scen string, seed int64, seeds, workers, days, stations, probes int,
	start string, fixed bool, csvPath string, verbose bool,
	shardI, shardM int, sharded bool, remote []string, cache *rescache.DiskCache, recordDir, out, outFile string) error {
	if csvPath != "" || verbose {
		return usageErrorf("-csv and -v apply to single runs, not -sweep")
	}
	if seeds < 1 {
		return usageErrorf("-seeds must be >= 1")
	}
	var names []string
	for _, n := range strings.Split(scen, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	g := sweep.Grid{Scenarios: names, Seeds: sweep.SeedRange(seed, seeds), Days: days}
	if stations > 0 {
		g.Stations = []int{stations}
	}
	if probes > 0 {
		g.Probes = []int{probes}
	}
	// -start and -special-first become one topology override applied to
	// every cell.
	apply, err := flagOverride(start, fixed)
	if err != nil {
		return err
	}
	if apply != nil {
		g.Overrides = []sweep.Override{{Name: "flags", Apply: apply}}
	}
	if recordDir != "" {
		// Stamp every cell's header with the plan fingerprint, so an
		// -evdiff across record directories can warn when the logs come
		// from different grids.
		plan, err := sweep.Plan(g)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(recordDir, 0o755); err != nil {
			return fmt.Errorf("create record dir: %w", err)
		}
		g.Record = recordCell(recordDir, sweep.Fingerprint(g, plan), start, fixed)
	}
	var runner sweep.Runner
	if len(remote) > 0 {
		rr := &distrib.RemoteRunner{
			Workers: remote,
			Logf:    func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
		}
		if apply != nil {
			// The Apply closure cannot cross the wire; the workers rebuild
			// it from the same flag values through the registered hook set.
			rr.Hooks = "glacsim/flags"
			rr.HookArgs = flagsHookArgs(start, fixed)
		}
		runner = rr
	} else {
		lr := sweep.LocalRunner{Workers: workers}
		if cache != nil {
			lr.Cache = cache
		}
		runner = lr
	}
	// Without -shard the spec parsed to 0/1: the whole grid.
	sum, err := sweep.RunShardWith(g, runner, shardI, shardM)
	if err != nil {
		return err
	}
	if cache != nil {
		// Stderr, so the summary on stdout stays byte-identical to an
		// uncached run.
		fmt.Fprintln(os.Stderr, cacheStatsLine(cache))
	}
	what := "sweep summary"
	if sharded {
		what = fmt.Sprintf("partial summary (shard %d/%d)", shardI, shardM)
	}
	return writeSummary(sum, what, out, outFile)
}

// recordCell is the Grid.Record hook behind -record-dir: each cell's log
// header names the cell, the -start/-special-first flags and the plan
// fingerprint, so the log replays from its header alone.
func recordCell(dir, fingerprint, start string, fixed bool) func(sweep.Cell, *deploy.Deployment) (func() error, error) {
	return cliutil.CellRecorder(dir, func(c sweep.Cell) evlog.Header {
		return evlog.Header{
			Scenario: c.Scenario, Seed: c.Seed, Stations: c.Stations, Probes: c.Probes,
			Days: c.Days, Start: start, SpecialFirst: fixed, Fingerprint: fingerprint,
		}
	})
}

// runReplay re-runs the scenario a recorded log describes and verifies
// step-for-step equivalence. A divergence is a runtime error (exit 1)
// naming the exact event.
func runReplay(path string) error {
	l, err := evlog.ReadFile(path)
	if err != nil {
		return err
	}
	div, err := evlog.Verify(l)
	if err != nil {
		return err
	}
	if div != nil {
		return fmt.Errorf("replay of %s diverged: %w", path, div)
	}
	fmt.Printf("replay of %s: %d events verified, zero divergences\n", path, len(l.Records))
	return nil
}

// runEvdiff compares two recorded logs and reports the first divergence
// with context; divergent logs are a runtime error (exit 1).
func runEvdiff(pathA, pathB string) error {
	a, err := evlog.ReadFile(pathA)
	if err != nil {
		return err
	}
	b, err := evlog.ReadFile(pathB)
	if err != nil {
		return err
	}
	d := evlog.Diff(a, b)
	if d == nil {
		fmt.Printf("logs identical: %d events\n", len(a.Records))
		return nil
	}
	fmt.Println(d.Report(a, b))
	return fmt.Errorf("%s and %s diverge at event %d", pathA, pathB, d.Index)
}

// openCache opens the result cache the -cache/-no-cache flags select; a
// nil cache means caching is off.
func openCache(dir string, noCache bool, maxMB int) (*rescache.DiskCache, error) {
	resolved, err := cliutil.ResolveCacheDir(dir, noCache)
	if err != nil || resolved == "" {
		return nil, err
	}
	return rescache.Open(resolved, rescache.Options{
		MaxBytes: int64(maxMB) << 20,
		Logf:     func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	})
}

// cacheStatsLine renders the post-run cache-stats line.
func cacheStatsLine(c *rescache.DiskCache) string {
	st := c.Stats()
	return fmt.Sprintf("cache %s: %d hits, %d misses, %d stores, %d evictions (%d entries, %d bytes)",
		c.Dir(), st.Hits, st.Misses, st.Stores, st.Evictions, c.Len(), c.SizeBytes())
}

// runWorker serves sweep shards until the process is killed.
func runWorker(addr string, maxShards, cellWorkers int, cache *rescache.DiskCache) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	w := &distrib.Worker{
		MaxShards:   maxShards,
		CellWorkers: cellWorkers,
		Logf:        func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	}
	if cache != nil {
		// The assignment is guarded so a disabled cache stays a nil
		// interface, not a typed-nil *DiskCache the worker would call.
		w.Cache = cache
		fmt.Fprintf(os.Stderr, "glacsim worker: result cache at %s (%d entries)\n", cache.Dir(), cache.Len())
	}
	// The resolved address on stdout lets scripts use -listen 127.0.0.1:0
	// and scrape the port.
	fmt.Printf("glacsim worker listening on %s\n", l.Addr())
	return distrib.Serve(l, w)
}

func init() {
	distrib.RegisterHooks("glacsim/flags", flagsHooks)
}

// flagsHooks rebuilds the -start/-special-first topology override on the
// worker side of the wire; the args string carries the flag values
// url-encoded (flagsHookArgs).
func flagsHooks(args string, g *sweep.Grid) error {
	v, err := url.ParseQuery(args)
	if err != nil {
		return fmt.Errorf("bad flag args %q: %w", args, err)
	}
	apply, err := flagOverride(v.Get("start"), v.Get("special-first") == "1")
	if err != nil {
		return err
	}
	if apply == nil {
		return fmt.Errorf("flag args %q carry no flags", args)
	}
	for i := range g.Overrides {
		if g.Overrides[i].Name == "flags" {
			g.Overrides[i].Apply = apply
			return nil
		}
	}
	return fmt.Errorf("grid has no %q override to reattach the flags to", "flags")
}

// flagsHookArgs encodes the flag values for the glacsim/flags hook set.
func flagsHookArgs(start string, fixed bool) string {
	v := url.Values{}
	if start != "" {
		v.Set("start", start)
	}
	if fixed {
		v.Set("special-first", "1")
	}
	return v.Encode()
}

// runMerge folds partial summary files into the full-grid summary.
func runMerge(files []string, out, outFile string) error {
	// Belt and braces with the dispatch check in run(): zero inputs must
	// be a usage error (exit 2 + usage line), never an "empty summary"
	// that looks like a successful merge.
	if len(files) == 0 {
		return usageErrorf("-merge needs at least one partial summary file")
	}
	parts := make([]*sweep.Summary, len(files))
	for i, path := range files {
		part, err := sweep.ReadSummaryFile(path)
		if err != nil {
			return err
		}
		parts[i] = part
	}
	sum, err := sweep.MergeSummaries(parts...)
	if err != nil {
		return err
	}
	return writeSummary(sum, fmt.Sprintf("merged summary (%d shards)", len(files)), out, outFile)
}

// writeSummary encodes a summary to stdout or a file.
func writeSummary(sum *sweep.Summary, what, out, outFile string) error {
	encode := func(w io.Writer) error {
		switch out {
		case "csv":
			return sum.WriteCSV(w)
		case "cells-csv":
			return sum.WriteCellsCSV(w)
		case "groups-csv":
			return sum.WriteGroupsCSV(w)
		case "json":
			return sum.WriteJSON(w)
		default:
			_, err := fmt.Fprint(w, sum)
			return err
		}
	}
	if outFile == "" {
		if err := encode(os.Stdout); err != nil {
			return fmt.Errorf("write %s: %w", what, err)
		}
		return nil
	}
	f, err := os.Create(outFile)
	if err != nil {
		return fmt.Errorf("create %s: %w", outFile, err)
	}
	if err := encode(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", what, err)
	}
	// A failed close is a failed write (unflushed buffers, full disk) —
	// never report a truncated artifact as written.
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", what, err)
	}
	fmt.Printf("%s (%d of %d cells, %d configurations) written to %s as %s\n",
		what, len(sum.Cells), sum.TotalCells, len(sum.Groups), outFile, out)
	return nil
}

func printReport(name string, r station.RunReport) {
	fmt.Printf("%-9s %s local=%v ov=%2d eff=%v probes=%4d gps=%2d up=%7dB comms=%-5v wd=%-5v %v\n",
		name, r.Date.Format("2006-01-02"), r.LocalState, int(r.Override), r.Effective,
		r.ProbeReadings, r.GPSFilesDrained, r.UploadedBytes, r.CommsOK, r.WatchdogTripped,
		r.WallElapsed.Round(time.Minute))
}

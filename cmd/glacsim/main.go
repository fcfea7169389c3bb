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
	"os"
	"slices"
	"strings"
	"time"

	_ "repro/internal/campaign" // register the campaign hook sets in -worker binaries
	"repro/internal/cliutil"
	"repro/internal/distrib"
	"repro/internal/evlog"
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
	ef := cliutil.ExecFlags{Set: set, Workers: *workers, Remote: *remote,
		Cache: *cacheDir, NoCache: *noCache, CacheMaxMB: *cacheMB, RecordDir: *recDir}

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
		ex, err := cliutil.OpenExec(ef)
		if err != nil {
			return err
		}
		return runWorker(*listen, *maxShard, ex)
	}
	if set["listen"] || set["max-shards"] {
		return usageErrorf("-listen and -max-shards configure the worker daemon; use them with -worker")
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
	params := scenario.Params{Seed: *seed, Stations: *stations, Probes: *probes, Days: *days}
	if *doSweep {
		if set["record"] {
			return usageErrorf("-record records single runs; use -record-dir with -sweep")
		}
		if *csvPath != "" || *verbose {
			return usageErrorf("-csv and -v apply to single runs, not -sweep")
		}
		if *seeds < 1 {
			return usageErrorf("-seeds must be >= 1")
		}
		g, hooks, err := sweepGrid(*scen, params, *seeds, *start, *fixed)
		if err != nil {
			return err
		}
		ex, err := cliutil.OpenExec(ef)
		if err != nil {
			return err
		}
		if err := ex.Record(&g, "", evlog.Header{Start: *start, SpecialFirst: *fixed}); err != nil {
			return err
		}
		// Without -shard the spec parsed to 0/1: the whole grid. An
		// explicit -shard 0/1 is still a shard run, so scripts
		// parameterised over the shard count work at m=1.
		sum, err := sweep.RunShardWith(g, ex.Runner(hooks), shardI, shardM)
		if err != nil {
			return err
		}
		ex.LogCacheStats()
		what := "sweep summary"
		if set["shard"] {
			what = fmt.Sprintf("partial summary (shard %d/%d)", shardI, shardM)
		}
		return writeSummary(sum, what, *out, *outFile)
	}
	if set["shard"] {
		return usageErrorf("-shard slices sweep grids; use it with -sweep")
	}
	if set["record-dir"] {
		return usageErrorf("-record-dir records sweep cells; use it with -sweep (single runs take -record FILE)")
	}
	if set["remote"] {
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
	// The header is the whole description of the run: building from it
	// makes the log -record writes exactly what -replay rebuilds.
	hdr := evlog.Header{Scenario: *scen, Seed: params.Seed, Stations: params.Stations,
		Probes: params.Probes, Days: params.Days, Start: *start, SpecialFirst: *fixed}
	d, horizon, err := evlog.Rebuild(hdr)
	if err != nil {
		return err
	}
	hdr.Days = horizon

	var rec *evlog.Writer
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			return fmt.Errorf("create event log: %w", err)
		}
		defer func() { _ = f.Close() }()
		rec, err = evlog.NewWriter(f, hdr)
		if err != nil {
			return err
		}
		rec.Attach(d.Sim)
	}

	var volts *trace.Series
	if *csvPath != "" {
		i := slices.IndexFunc(d.Stations, func(st *station.Station) bool { return st.Role() == station.RoleBase })
		if i < 0 {
			return fmt.Errorf("-csv needs a base station in the scenario")
		}
		base := d.Stations[i]
		volts, _ = trace.Sample(d.Sim, 10*time.Minute, "base_volts", "V",
			func(time.Time) float64 { return base.Node().Bus.VoltageNow() })
	}

	if *verbose {
		for _, st := range d.Stations {
			name := st.Name()
			st.OnReport(func(r station.RunReport) { printReport(name, r) })
		}
	}

	if err := d.RunDays(hdr.Days); err != nil {
		return err
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			return err
		}
	}

	fmt.Printf("=== scenario %s: %d simulated days ===\n", hdr.Scenario, hdr.Days)
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

// flagsHookSet names the hook set a remote worker rebuilds the
// -start/-special-first override from.
const flagsHookSet = "glacsim/flags"

// sweepGrid is the grid -sweep runs: the comma-separated scenario list x
// the seed range from p.Seed, with p's fleet and cohort sizes and horizon,
// and the -start/-special-first flags as one override on every cell. The
// hook set names how a remote worker rebuilds that override ("" without
// one).
func sweepGrid(scen string, p scenario.Params, seeds int, start string, fixed bool) (g sweep.Grid, hooks string, err error) {
	var names []string
	for _, n := range strings.Split(scen, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	g = sweep.Grid{Scenarios: names, Seeds: sweep.SeedRange(p.Seed, seeds), Days: p.Days}
	if p.Stations > 0 {
		g.Stations = []int{p.Stations}
	}
	if p.Probes > 0 {
		g.Probes = []int{p.Probes}
	}
	name, apply, err := scenario.FlagOverride(start, fixed)
	if err != nil || apply == nil {
		return g, "", err
	}
	g.Overrides = []sweep.Override{{Name: name, Apply: apply}}
	return g, flagsHookSet, nil
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

// runWorker serves sweep shards until the process is killed.
func runWorker(addr string, maxShards int, ex *cliutil.Exec) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	if ex.Cache != nil {
		cliutil.Logf("glacsim worker: result cache at %s (%d entries)", ex.Cache.Dir(), ex.Cache.Len())
	}
	// The resolved address on stdout lets scripts use -listen 127.0.0.1:0
	// and scrape the port.
	fmt.Printf("glacsim worker listening on %s\n", l.Addr())
	return distrib.Serve(l, &distrib.Worker{
		MaxShards:   maxShards,
		CellWorkers: ex.Workers,
		Cache:       ex.ResultCache(),
		Logf:        cliutil.Logf,
	})
}

func init() {
	distrib.RegisterHooks(flagsHookSet, flagsHooks)
}

// flagsHooks reattaches the -start/-special-first override on the worker
// side of the wire, rebuilt from the override's name.
func flagsHooks(_ string, g *sweep.Grid) error {
	if len(g.Overrides) == 0 {
		return fmt.Errorf("grid carries no flag override")
	}
	for i := range g.Overrides {
		apply, err := scenario.ParseFlagOverride(g.Overrides[i].Name)
		if err != nil {
			return err
		}
		g.Overrides[i].Apply = apply
	}
	return nil
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

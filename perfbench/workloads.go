package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/sweep"
)

// variants is how many input variants --seed selects between; the outputs
// of every variant are pinned in digests.json.
const variants = 8

// variantOf maps a benchmark seed to its input variant.
func variantOf(seed int64) int {
	v := seed % variants
	if v < 0 {
		v += variants
	}
	return int(v)
}

// baseSeed is the first simulation seed of a variant's grids.
func baseSeed(variant int) int64 { return 1 + 1000*int64(variant) }

// Run lengths. Changing any of them changes the outputs, so the pins must
// be taken again (-pin).
const (
	fleetStations = 1000
	fleetSeeds    = 2
	fleetDays     = 3
	campaignSeeds = 50
	replaySeeds   = 12
)

// iterResult is one measured iteration of a workload.
type iterResult struct {
	setup, wall float64 // seconds
	use         usage
	out         string // the iteration's output directory
	// failed names operations that failed while running (a diverged
	// replay, a requeued cell, a dead worker); extraOps counts attempts
	// beyond the workload's own operations (requeued cells, dead workers).
	failed   map[string]bool
	extraOps int
	problems []string
}

// problem records a failure that is not one operation's, such as a
// nonzero exit whose missing outputs the check then counts.
func (it *iterResult) problem(why string) { it.problems = append(it.problems, why) }

func (it *iterResult) fail(op, why string) {
	if it.failed == nil {
		it.failed = map[string]bool{}
	}
	it.failed[op] = true
	it.problems = append(it.problems, op+": "+why)
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	set  string // the output set its outputs are pinned under
	// ops is the number of operations one iteration attempts.
	ops func(b *bench) int
	// prepare runs once before the measured phase; nil means nothing to do.
	prepare func(b *bench) error
	// iterate sets up, runs and reaps one iteration of the real CLIs.
	iterate func(b *bench, dir string) (iterResult, error)
	// check accounts an output directory against the pinned reference and
	// names the operations it fails.
	check func(b *bench, out string, ref pinned) (map[string]bool, []string)
	// traced runs one iteration in-process through the layers' own APIs.
	traced func(b *bench, tr *traceRun, out string) error
	// grids returns the sweep grids the workload runs.
	grids func(b *bench) []sweep.Grid
	// kernel sizes the synthetic kernel schedule: stations per simulator
	// and probes per base station.
	kernelStations, kernelProbes int
}

var workloads = []*workload{
	{
		name: "fleet-1000", set: "fleet-1000",
		ops:     func(*bench) int { return fleetSeeds },
		iterate: (*bench).fleetIter,
		check:   (*bench).checkSweep,
		traced:  (*bench).fleetTraced,
		grids:   func(b *bench) []sweep.Grid { return []sweep.Grid{b.fleetGrid()} },
		// FleetTopology: one reference plus bases with 3 probes each.
		kernelStations: fleetStations, kernelProbes: 3,
	},
	{
		name: "campaign-cold", set: "campaign",
		ops:     (*bench).campaignOps,
		iterate: (*bench).campaignColdIter,
		check:   (*bench).checkCampaign,
		traced:  (*bench).campaignColdTraced,
		grids:   (*bench).campaignGrids,
		// Most campaign cells are the as-deployed pair with its 7 probes.
		kernelStations: 2, kernelProbes: 7,
	},
	{
		name: "campaign-warm-remote", set: "campaign",
		ops:            (*bench).campaignOps,
		prepare:        (*bench).warmCache,
		iterate:        (*bench).campaignRemoteIter,
		check:          (*bench).checkCampaign,
		traced:         (*bench).campaignRemoteTraced,
		grids:          (*bench).campaignGrids,
		kernelStations: 2, kernelProbes: 7,
	},
	{
		name: "record-replay", set: "record-replay",
		ops:     func(*bench) int { return replaySeeds },
		iterate: (*bench).recordReplayIter,
		check:   (*bench).checkRecordReplay,
		traced:  (*bench).recordReplayTraced,
		grids:   func(b *bench) []sweep.Grid { return []sweep.Grid{b.replayGrid()} },
		// probe-heavy: one base with 21 probes plus a reference.
		kernelStations: 2, kernelProbes: 21,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// itoa formats a flag value.
func itoa[T int | int64](v T) string { return strconv.FormatInt(int64(v), 10) }

// ready runs a binary's cheapest mode and checks that it knows what the
// workload needs: the start-up cost every measured process also pays.
func ready(t tool, dir string, args []string, want string) error {
	out, _, _, err := t.run(dir, args...)
	if err != nil {
		return err
	}
	if !strings.Contains(out, want) {
		return fmt.Errorf("%s %v: output lacks %q", t.path, args, want)
	}
	return nil
}

// freshDir creates dir and the named subdirectories, all empty.
func freshDir(dir string, subs ...string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	for _, s := range append([]string{""}, subs...) {
		if err := os.MkdirAll(filepath.Join(dir, s), 0o755); err != nil {
			return err
		}
	}
	return nil
}

// ---- fleet-1000 ----

func (b *bench) fleetIter(dir string) (iterResult, error) {
	it := iterResult{out: filepath.Join(dir, "out")}
	t0 := time.Now()
	if err := freshDir(dir, "out"); err != nil {
		return it, err
	}
	if err := ready(b.glacsim, dir, []string{"-list"}, "fleet-N"); err != nil {
		return it, err
	}
	it.setup = time.Since(t0).Seconds()

	t1 := time.Now()
	_, _, ps, err := b.glacsim.run(it.out, "-sweep", "-scenario", "fleet-N",
		"-stations", itoa(fleetStations), "-seeds", itoa(fleetSeeds), "-seed", itoa(b.seed),
		"-days", itoa(fleetDays), "-workers", itoa(b.workers), "-no-cache",
		"-out", "json", "-o", "summary.json")
	it.wall = time.Since(t1).Seconds()
	it.use.add(ps)
	if err != nil {
		it.problem(err.Error())
	}
	return it, nil
}

// checkSweep accounts a one-summary output directory: every cell of
// summary.json is an operation.
func (b *bench) checkSweep(out string, ref pinned) (map[string]bool, []string) {
	return checkUnits(out, ref, []unit{{id: "sweep", summary: "summary.json",
		files: []string{"summary.json"}, ops: fleetSeeds}})
}

// ---- the campaign ----

// campaignUnits lists the campaign's experiments as accounting units.
func (b *bench) campaignUnits() []unit {
	var units []unit
	for _, e := range campaign.Entries() {
		plan, err := sweep.Plan(e.Grid(b.seed, campaignSeeds, 0))
		if err != nil {
			panic(fmt.Sprintf("campaign %s: %v", e.ID, err))
		}
		units = append(units, unit{id: e.ID, summary: e.ID + ".json",
			files: []string{e.ID + ".cells.csv", e.ID + ".groups.csv", e.ID + ".json"}, ops: len(plan)})
	}
	return units
}

func (b *bench) campaignOps() int {
	n := 0
	for _, u := range b.campaignUnits() {
		n += u.ops
	}
	return n
}

func (b *bench) checkCampaign(out string, ref pinned) (map[string]bool, []string) {
	return checkUnits(out, ref, b.campaignUnits())
}

func (b *bench) campaignArgs(extra ...string) []string {
	return append([]string{"-campaign", "-seed", itoa(b.seed), "-seeds", itoa(campaignSeeds)}, extra...)
}

func (b *bench) campaignColdIter(dir string) (iterResult, error) {
	it := iterResult{out: filepath.Join(dir, "out")}
	t0 := time.Now()
	if err := freshDir(dir, "out", "cache"); err != nil {
		return it, err
	}
	if err := ready(b.glacreport, dir, []string{"-exp", "t2"}, "T2"); err != nil {
		return it, err
	}
	it.setup = time.Since(t0).Seconds()

	t1 := time.Now()
	_, _, ps, err := b.glacreport.run(dir, b.campaignArgs("-workers", itoa(b.workers),
		"-cache", "cache", "-dir", "out")...)
	it.wall = time.Since(t1).Seconds()
	it.use.add(ps)
	if err != nil {
		it.problem(err.Error())
	}
	return it, nil
}

// warmCache fills the shared result cache of campaign-warm-remote with a
// cold campaign of the same parameters, so every measured cell is a hit.
func (b *bench) warmCache() error {
	dir := filepath.Join(b.work, "warm")
	if err := freshDir(dir, "out", "cache"); err != nil {
		return err
	}
	if _, _, _, err := b.glacreport.run(dir, b.campaignArgs("-workers", itoa(b.workers),
		"-cache", "cache", "-dir", "out")...); err != nil {
		return fmt.Errorf("warming the cache: %w", err)
	}
	if b.pins != nil {
		ref, err := b.pins.lookup("campaign", b.variant)
		if err != nil {
			return err
		}
		if failed, problems := b.checkCampaign(filepath.Join(dir, "out"), ref); len(failed) > 0 {
			return fmt.Errorf("warming the cache produced wrong outputs: %s", strings.Join(problems, "; "))
		}
	}
	b.warmDir = filepath.Join(dir, "cache")
	return nil
}

// requeueLine matches the coordinator's requeue narration and captures
// the shard's cell indices.
var requeueLine = regexp.MustCompile(`distrib: worker \S+ (?:at capacity,|failed) shard cells \[([0-9 ]*)\].*requeued`)

// requeues returns the lines of a coordinator's stderr that report a
// shard requeued, by 503 backpressure or by a failure, and the number of
// cell attempts they cost.
func requeues(stderr string) (lines []string, cells int) {
	for _, m := range requeueLine.FindAllStringSubmatch(stderr, -1) {
		lines = append(lines, m[0])
		cells += len(strings.Fields(m[1]))
	}
	return lines, cells
}

func (b *bench) campaignRemoteIter(dir string) (iterResult, error) {
	it := iterResult{out: filepath.Join(dir, "out")}
	t0 := time.Now()
	if err := freshDir(dir, "out"); err != nil {
		return it, err
	}
	var ws []*workerProc
	stopAll := func() {
		for i, w := range ws {
			ps, died := w.stop()
			it.use.add(ps)
			if died {
				it.extraOps++
				it.fail(fmt.Sprintf("worker-%d", i), "exited before it was stopped: "+tail(w.stderr.String(), 300))
			}
		}
	}
	for i := 0; i < 2; i++ {
		w, err := startWorker(b.glacsim, dir, b.warmDir)
		if err != nil {
			stopAll()
			return it, err
		}
		ws = append(ws, w)
	}
	for _, w := range ws {
		if err := w.waitHealthy(30 * time.Second); err != nil {
			stopAll()
			return it, err
		}
	}
	it.setup = time.Since(t0).Seconds()

	t1 := time.Now()
	_, stderr, ps, err := b.glacreport.run(dir, b.campaignArgs("-remote", ws[0].Addr+","+ws[1].Addr, "-dir", "out")...)
	it.wall = time.Since(t1).Seconds()
	it.use.add(ps)
	stopAll()
	if err != nil {
		it.problem(err.Error())
	}
	lines, n := requeues(stderr)
	for k := 0; k < n; k++ {
		it.fail(fmt.Sprintf("requeued-%d", k), "a cell attempt the coordinator requeued")
	}
	it.extraOps += n
	for _, l := range lines {
		it.problem(l)
	}
	return it, nil
}

// ---- record-replay ----

func logName(i int) string { return fmt.Sprintf("rec/cell-%04d.evlog", i) }

func (b *bench) recordReplayIter(dir string) (iterResult, error) {
	it := iterResult{out: filepath.Join(dir, "out")}
	t0 := time.Now()
	if err := freshDir(dir, "out/rec"); err != nil {
		return it, err
	}
	if err := ready(b.glacsim, dir, []string{"-list"}, "probe-heavy"); err != nil {
		return it, err
	}
	it.setup = time.Since(t0).Seconds()

	t1 := time.Now()
	_, _, ps, err := b.glacsim.run(it.out, "-sweep", "-scenario", "probe-heavy",
		"-seeds", itoa(replaySeeds), "-seed", itoa(b.seed), "-workers", itoa(b.workers),
		"-record-dir", "rec", "-out", "json", "-o", "summary.json")
	it.use.add(ps)
	if err != nil {
		it.wall = time.Since(t1).Seconds()
		for i := 0; i < replaySeeds; i++ {
			it.fail(logName(i), err.Error())
		}
		return it, nil
	}
	// Replay every log, b.workers at a time.
	var mu sync.Mutex
	next := make(chan int, replaySeeds)
	for i := 0; i < replaySeeds; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out, _, ps, err := b.glacsim.run(it.out, "-replay", logName(i))
				mu.Lock()
				it.use.add(ps)
				switch {
				case err != nil:
					it.fail(logName(i), err.Error())
				case !strings.Contains(out, "zero divergences"):
					it.fail(logName(i), "replay did not report zero divergences: "+tail(out, 200))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	it.wall = time.Since(t1).Seconds()
	return it, nil
}

// checkRecordReplay accounts the recorded logs: log i is operation i, and
// it fails when it differs from its pin or cell i of the summary failed.
func (b *bench) checkRecordReplay(out string, ref pinned) (map[string]bool, []string) {
	cells, problems := checkUnits(out, ref, []unit{{id: "sweep", summary: "summary.json",
		files: []string{"summary.json"}, ops: replaySeeds}})
	got, err := digestDir(out)
	failed := map[string]bool{}
	for i := 0; i < replaySeeds; i++ {
		name := logName(i)
		if cells[fmt.Sprintf("sweep/%d", i)] || err != nil || got[name] != ref.Files[name] {
			failed[name] = true
		}
	}
	return failed, problems
}

// ---- accounting ----

// unit is a group of output files whose operations stand or fall
// together: a summary JSON plus the tables encoded from it.
type unit struct {
	id      string
	summary string   // summary JSON, relative to the output directory
	files   []string // every file of the unit, the summary included
	ops     int      // cells the unit carries
}

// checkUnits compares an output directory with its pinned digests and
// names the failed operations, "<unit>/<cell index>": every cell of a
// unit with a missing or differing file, every errored cell and every
// cell missing from a summary. Unexpected files are problems but fail no
// cell.
func checkUnits(out string, ref pinned, units []unit) (map[string]bool, []string) {
	failed := map[string]bool{}
	var problems []string
	failAll := func(u unit) {
		for i := 0; i < u.ops; i++ {
			failed[fmt.Sprintf("%s/%d", u.id, i)] = true
		}
	}
	got, err := digestDir(out)
	if err != nil {
		for _, u := range units {
			failAll(u)
		}
		return failed, []string{err.Error()}
	}
	bad := map[string]bool{}
	for _, m := range compareDigests(got, ref.Files) {
		bad[m.File] = true
		problems = append(problems, m.String())
	}
	for _, u := range units {
		unitBad := false
		for _, f := range u.files {
			unitBad = unitBad || bad[f]
		}
		if unitBad {
			failAll(u)
			continue
		}
		sum, err := sweep.ReadSummaryFile(filepath.Join(out, u.summary))
		if err != nil {
			failAll(u)
			problems = append(problems, err.Error())
			continue
		}
		seen := map[int]bool{}
		for _, cr := range sum.Cells {
			seen[cr.Cell.Index] = true
			if cr.Err != "" {
				failed[fmt.Sprintf("%s/%d", u.id, cr.Cell.Index)] = true
				problems = append(problems, fmt.Sprintf("%s cell %s: %s", u.id, cr.Cell.Label(), cr.Err))
			}
		}
		for i := 0; i < u.ops; i++ {
			if !seen[i] {
				failed[fmt.Sprintf("%s/%d", u.id, i)] = true
				problems = append(problems, fmt.Sprintf("%s: cell %d missing", u.id, i))
			}
		}
	}
	return failed, problems
}

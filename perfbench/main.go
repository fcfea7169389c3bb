// Command perfbench is the repository benchmark. It runs one workload of
// the Glacsweb reproduction — through the real glacsim and glacreport
// binaries, as child processes — for a fixed measuring time, checks every
// output against the digests pinned in digests.json, and prints one JSON
// result line with the end-to-end metrics. With -trace 1 it instead does
// the same work in-process through the layers' own APIs and prints the
// per-layer metrics. See README.md for the workloads and metrics.
//
// Usage (from the root of a checkout, after run.sh has built the binaries):
//
//	perfbench -workload campaign-cold -seed 3 -seconds 10 -trace 0
//	perfbench -pin    # re-take digests.json from the current program
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxRunTime bounds the measured phases of one run, whatever -seconds
// asks for, so a run always exits in time.
const maxRunTime = 120 * time.Second

// bench is one run's configuration and shared state.
type bench struct {
	root                string // checkout root
	work                string // this run's working directory
	glacsim, glacreport tool
	workers             int   // cell workers and concurrent children: min(2, nproc)
	variant             int   // input variant the seed selects
	seed                int64 // first simulation seed of the variant
	pins                *pins
	warmDir             string // campaign-warm-remote's warmed cache
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 0, "benchmark seed: selects the input variant")
		seconds = flag.Int("seconds", 10, "measuring time in seconds")
		trace   = flag.Int("trace", 0, "1 = in-process traced run reporting per-layer metrics")
		root    = flag.String("root", ".", "checkout root (holds .bench_build)")
		pin     = flag.Bool("pin", false, "run every workload once per variant and rewrite digests.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *root, *pin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, root string, pin bool) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	b := &bench{root: root, workers: min(2, runtime.NumCPU())}
	runtime.GOMAXPROCS(b.workers)
	pinsPath := filepath.Join(root, "perfbench", "digests.json")
	work := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	if b.work, err = os.MkdirTemp(work, "run-"); err != nil {
		return err
	}
	// Best effort: a leftover working directory is all a failure here costs.
	defer func() { _ = os.RemoveAll(b.work) }()
	env := childEnv(os.Environ(), b.workers, b.work)
	bin := filepath.Join(root, ".bench_build", "bin")
	b.glacsim = tool{path: filepath.Join(bin, "glacsim"), env: env}
	b.glacreport = tool{path: filepath.Join(bin, "glacreport"), env: env}
	for _, t := range []tool{b.glacsim, b.glacreport} {
		if _, err := os.Stat(t.path); err != nil {
			return fmt.Errorf("program binary missing (build it with perfbench/run.sh): %w", err)
		}
	}
	if pin {
		return b.pinAll(pinsPath)
	}

	wl, ok := lookupWorkload(name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown -workload %q (one of %s)", name, strings.Join(names, ", "))
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1")
	}
	if b.pins, err = loadPins(pinsPath); err != nil {
		return err
	}
	b.variant = variantOf(seed)
	b.seed = baseSeed(b.variant)
	ref, err := b.pins.lookup(wl.set, b.variant)
	if err != nil {
		return err
	}

	st := stampOf(root, b.workers)
	st.Workload, st.Seed, st.Variant, st.BaseSeed, st.Trace = wl.name, seed, b.variant, b.seed, trace
	stampLine, err := json.Marshal(map[string]any{"stamp": st})
	if err != nil {
		return err
	}
	fmt.Println(string(stampLine))
	fmt.Fprintln(os.Stderr, string(stampLine))

	budget := time.Duration(seconds) * time.Second
	var res *result
	if trace == 1 {
		res, err = b.tracedRun(wl, ref, budget)
	} else {
		res, err = b.untracedRun(wl, ref, budget)
	}
	if err != nil {
		return err
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func (r *result) set(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// line is the result as the last line of standard output carries it.
func (r *result) line() map[string]any {
	return map[string]any{
		"correct":   r.failed == 0 && len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}

// measured is the untraced iterations of one run.
type measured struct {
	iters     []iterResult
	attempted int
	failed    int
	problems  []string
	prepare   float64 // seconds of run-level setup
}

// measure runs the workload's prepare step, then iterations until their
// measured time reaches budget (at least minIters of them), checking each
// iteration's outputs. The last iteration's outputs are kept in keep.
func (b *bench) measure(wl *workload, ref pinned, budget time.Duration, minIters int, keep string) (*measured, error) {
	m := &measured{}
	if wl.prepare != nil {
		t0 := time.Now()
		if err := wl.prepare(b); err != nil {
			return nil, err
		}
		m.prepare = time.Since(t0).Seconds()
	}
	start := time.Now()
	var spent float64
	for i := 0; ; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("iter-%03d", i))
		it, err := wl.iterate(b, dir)
		if err != nil {
			return nil, err
		}
		failed, problems := wl.check(b, it.out, ref)
		for op := range it.failed {
			failed[op] = true
		}
		m.attempted += wl.ops(b) + it.extraOps
		m.failed += len(failed)
		m.problems = append(m.problems, it.problems...)
		m.problems = append(m.problems, problems...)
		m.iters = append(m.iters, it)
		spent += it.wall
		fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: setup %.4fs wall %.4fs cpu %.4fs peak rss %d KiB, %d failed\n",
			wl.name, i, it.setup, it.wall, it.use.CPU, it.use.PeakRSS, len(failed))
		if keep != "" {
			if err := os.RemoveAll(keep); err != nil {
				return nil, err
			}
			if err := os.Rename(it.out, keep); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if (spent >= budget.Seconds() && len(m.iters) >= minIters) || time.Since(start) > maxRunTime {
			return m, nil
		}
	}
}

// untracedRun is a -trace 0 run: the end-to-end metrics, medians over the
// measured iterations.
func (b *bench) untracedRun(wl *workload, ref pinned, budget time.Duration) (*result, error) {
	m, err := b.measure(wl, ref, budget, 3, "")
	if err != nil {
		return nil, err
	}
	var wall, cpu, rss, cells, days, setup []float64
	for _, it := range m.iters {
		wall = append(wall, it.wall)
		cpu = append(cpu, it.use.CPU)
		rss = append(rss, float64(it.use.PeakRSS)/1024)
		cells = append(cells, float64(wl.ops(b))/it.wall)
		days = append(days, ref.StationDays/it.wall)
		setup = append(setup, it.setup)
	}
	res := &result{attempted: m.attempted, failed: m.failed, problems: m.problems}
	res.set("wall_s", median(wall), "s")
	res.set("cpu_s", median(cpu), "s")
	res.set("peak_rss_mb", median(rss), "MB")
	res.set("cells_per_s", median(cells), "1/s")
	res.set("station_days_per_s", median(days), "1/s")
	res.set("setup_s", m.prepare+median(setup), "s")
	return res, nil
}

// stamp identifies the machine and program a result was measured on.
type stamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Variant    int    `json:"variant"`
	BaseSeed   int64  `json:"base_seed"`
	Trace      int    `json:"trace"`
}

func stampOf(root string, workers int) stamp {
	return stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commitOf(root),
	}
}

// cpuModel reads the processor's model name from the kernel.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf identifies the program source: the git commit when the
// checkout is a repository, otherwise "tree:" and a digest of every Go
// source and module file outside the build directory.
func commitOf(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if c, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				return strings.TrimSpace(string(c))
			}
		} else {
			return ref
		}
	}
	var files []string
	// An unreadable file only drops out of the digest; the walk never fails.
	_ = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		if info.IsDir() && (info.Name() == ".bench_build" || info.Name() == ".git") {
			return filepath.SkipDir
		}
		if !info.IsDir() && (strings.HasSuffix(path, ".go") || info.Name() == "go.mod" || info.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	var lines []string
	for _, f := range files {
		d, err := fileDigest(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		lines = append(lines, d+" "+filepath.ToSlash(rel))
	}
	return "tree:" + digestString(strings.Join(lines, "\n"))[:16]
}

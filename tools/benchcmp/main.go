// Benchcmp is the bench regression gate: it compares two BENCH_N.json
// trajectory files (tools/benchjson output) and exits non-zero when any
// benchmark present in both got slower or more allocation-hungry than the
// configured ratios allow. Thresholds default generous, to absorb runner
// noise — the gate exists to catch order-of-magnitude churn regressions,
// not 5% jitter.
//
// Benchmarks present in only one file are reported but never fail the
// gate: sub-benchmarks legitimately come and go (multi-worker sweeps are
// skipped on 1-CPU runners, new scaling points get added).
//
// With -history, benchcmp instead takes the whole series of committed
// trajectory files and prints a ns/op table — one row per benchmark, one
// column per snapshot, with the last/first speedup — so the perf story
// across PRs is readable at a glance in the bench-gate job log.
//
// Usage:
//
//	benchcmp [-max-time-ratio 2.5] [-max-alloc-ratio 1.5] [-max-bytes-ratio 2.0] OLD.json NEW.json
//	benchcmp -history BENCH_6.json BENCH_7.json BENCH_8.json ...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// record mirrors the per-benchmark schema of tools/benchjson.
type record struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// report mirrors the file schema of tools/benchjson; older files simply
// lack the CPU fields and decode with zeros.
type report struct {
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchmarks []record `json:"benchmarks"`
}

// breach is one threshold violation.
type breach struct {
	name   string
	metric string
	old    float64
	new    float64
	ratio  float64
	limit  float64
}

func main() {
	maxTime := flag.Float64("max-time-ratio", 2.5, "fail if new ns/op exceeds old by this factor")
	maxAlloc := flag.Float64("max-alloc-ratio", 1.5, "fail if new allocs/op exceeds old by this factor")
	maxBytes := flag.Float64("max-bytes-ratio", 2.0, "fail if new B/op exceeds old by this factor")
	hist := flag.Bool("history", false, "print a ns/op trajectory table across all given trajectory files")
	flag.Parse()
	if *hist {
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "usage: benchcmp -history FILE.json FILE.json...")
			os.Exit(2)
		}
		reps := make([]report, flag.NArg())
		for i, path := range flag.Args() {
			r, err := load(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
				os.Exit(2)
			}
			reps[i] = r
		}
		for _, l := range history(flag.Args(), reps) {
			fmt.Println(l)
		}
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [flags] OLD.json NEW.json")
		os.Exit(2)
	}
	oldRep, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	newRep, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	breaches, lines := compare(oldRep, newRep, *maxTime, *maxAlloc, *maxBytes)
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(breaches) > 0 {
		fmt.Printf("\n%d regression(s) over threshold:\n", len(breaches))
		for _, b := range breaches {
			fmt.Printf("  %s %s: %.0f -> %.0f (%.2fx > %.2fx limit)\n",
				b.name, b.metric, b.old, b.new, b.ratio, b.limit)
		}
		os.Exit(1)
	}
	fmt.Println("\nbench gate: OK")
}

// history renders the ns/op trajectory table: one row per benchmark in
// first-appearance order, one column per snapshot file, and a final
// last/first column (when both endpoints have the benchmark) showing the
// cumulative speedup (>1 = faster now). Missing entries — sub-benchmarks
// that did not exist yet, or were skipped on that runner — print as "-".
func history(paths []string, reps []report) []string {
	cols := make([]string, len(paths))
	for i, p := range paths {
		cols[i] = strings.TrimSuffix(filepath.Base(p), ".json")
	}
	var names []string
	byFile := make([]map[string]record, len(reps))
	seen := make(map[string]bool)
	for i, r := range reps {
		byFile[i] = make(map[string]record, len(r.Benchmarks))
		for _, b := range r.Benchmarks {
			byFile[i][b.Name] = b
			if !seen[b.Name] {
				seen[b.Name] = true
				names = append(names, b.Name)
			}
		}
	}
	nameW := len("benchmark (ns/op)")
	for _, n := range names {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	header := fmt.Sprintf("%-*s", nameW, "benchmark (ns/op)")
	for _, c := range cols {
		header += fmt.Sprintf("  %12s", c)
	}
	header += fmt.Sprintf("  %10s", "last/first")
	lines := []string{header}
	for _, n := range names {
		row := fmt.Sprintf("%-*s", nameW, n)
		for i := range reps {
			if r, ok := byFile[i][n]; ok {
				row += fmt.Sprintf("  %12.0f", r.NsPerOp)
			} else {
				row += fmt.Sprintf("  %12s", "-")
			}
		}
		first, okF := byFile[0][n]
		last, okL := byFile[len(reps)-1][n]
		if okF && okL && last.NsPerOp > 0 {
			row += fmt.Sprintf("  %9.2fx", first.NsPerOp/last.NsPerOp)
		} else {
			row += fmt.Sprintf("  %10s", "-")
		}
		lines = append(lines, row)
	}
	return lines
}

func load(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	// go test appends "-GOMAXPROCS" to every name when it exceeds 1; drop
	// it so snapshots taken on different CPU counts share rows.
	if r.GOMAXPROCS > 1 {
		suffix := "-" + strconv.Itoa(r.GOMAXPROCS)
		for i := range r.Benchmarks {
			r.Benchmarks[i].Name = strings.TrimSuffix(r.Benchmarks[i].Name, suffix)
		}
	}
	return r, nil
}

// compare evaluates new against old, returning threshold breaches and the
// human-readable comparison lines. Only benchmarks present in both files
// gate; a metric that is zero in the old file cannot form a ratio and is
// reported but never fails.
func compare(oldRep, newRep report, maxTime, maxAlloc, maxBytes float64) ([]breach, []string) {
	oldBy := make(map[string]record, len(oldRep.Benchmarks))
	for _, r := range oldRep.Benchmarks {
		oldBy[r.Name] = r
	}
	var breaches []breach
	var lines []string
	if oldRep.GoVersion != newRep.GoVersion {
		lines = append(lines, fmt.Sprintf("note: toolchain changed %s -> %s", oldRep.GoVersion, newRep.GoVersion))
	}
	seen := make(map[string]bool, len(newRep.Benchmarks))
	for _, nr := range newRep.Benchmarks {
		seen[nr.Name] = true
		or, ok := oldBy[nr.Name]
		if !ok {
			lines = append(lines, fmt.Sprintf("new only: %s (no baseline, not gated)", nr.Name))
			continue
		}
		checks := []struct {
			metric   string
			old, new float64
			limit    float64
		}{
			{"ns/op", or.NsPerOp, nr.NsPerOp, maxTime},
			{"allocs/op", float64(or.AllocsPerOp), float64(nr.AllocsPerOp), maxAlloc},
			{"B/op", float64(or.BytesPerOp), float64(nr.BytesPerOp), maxBytes},
		}
		for _, c := range checks {
			if c.old <= 0 {
				if c.new > 0 {
					lines = append(lines, fmt.Sprintf("note: %s %s was 0, now %.0f (no ratio, not gated)", nr.Name, c.metric, c.new))
				}
				continue
			}
			ratio := c.new / c.old
			lines = append(lines, fmt.Sprintf("%s %s: %.0f -> %.0f (%.2fx)", nr.Name, c.metric, c.old, c.new, ratio))
			if ratio > c.limit {
				breaches = append(breaches, breach{
					name: nr.Name, metric: c.metric,
					old: c.old, new: c.new, ratio: ratio, limit: c.limit,
				})
			}
		}
	}
	for _, or := range oldRep.Benchmarks {
		if !seen[or.Name] {
			lines = append(lines, fmt.Sprintf("old only: %s (dropped or skipped on this runner, not gated)", or.Name))
		}
	}
	return breaches, lines
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rep(recs ...record) report {
	return report{GoVersion: "go1.22", Benchmarks: recs}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	oldRep := rep(record{Name: "BenchmarkX", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10})
	newRep := rep(record{Name: "BenchmarkX", NsPerOp: 180, BytesPerOp: 1500, AllocsPerOp: 12})
	breaches, _ := compare(oldRep, newRep, 2.5, 1.5, 2.0)
	if len(breaches) != 0 {
		t.Fatalf("within-threshold comparison produced breaches: %+v", breaches)
	}
}

func TestCompareFlagsTimeRegression(t *testing.T) {
	oldRep := rep(record{Name: "BenchmarkX", NsPerOp: 100, BytesPerOp: 1, AllocsPerOp: 1})
	newRep := rep(record{Name: "BenchmarkX", NsPerOp: 300, BytesPerOp: 1, AllocsPerOp: 1})
	breaches, _ := compare(oldRep, newRep, 2.5, 1.5, 2.0)
	if len(breaches) != 1 || breaches[0].metric != "ns/op" {
		t.Fatalf("want one ns/op breach, got %+v", breaches)
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	oldRep := rep(record{Name: "BenchmarkX", NsPerOp: 1, BytesPerOp: 1, AllocsPerOp: 100})
	newRep := rep(record{Name: "BenchmarkX", NsPerOp: 1, BytesPerOp: 1, AllocsPerOp: 200})
	breaches, _ := compare(oldRep, newRep, 2.5, 1.5, 2.0)
	if len(breaches) != 1 || breaches[0].metric != "allocs/op" {
		t.Fatalf("want one allocs/op breach, got %+v", breaches)
	}
}

func TestMissingBenchmarksAreNotedNotGated(t *testing.T) {
	// workers-4/8 skipped on a 1-CPU runner: present in old, absent in new.
	oldRep := rep(
		record{Name: "BenchmarkSweep/workers-1", NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 10},
		record{Name: "BenchmarkSweep/workers-4", NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 10},
	)
	newRep := rep(
		record{Name: "BenchmarkSweep/workers-1", NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 10},
		record{Name: "BenchmarkFleetDay/stations-1000", NsPerOp: 999, AllocsPerOp: 999, BytesPerOp: 999},
	)
	breaches, lines := compare(oldRep, newRep, 2.5, 1.5, 2.0)
	if len(breaches) != 0 {
		t.Fatalf("asymmetric benchmark sets must not gate, got %+v", breaches)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "old only: BenchmarkSweep/workers-4") {
		t.Fatalf("dropped benchmark not noted:\n%s", joined)
	}
	if !strings.Contains(joined, "new only: BenchmarkFleetDay/stations-1000") {
		t.Fatalf("new benchmark not noted:\n%s", joined)
	}
}

func TestZeroBaselineIsNotGated(t *testing.T) {
	oldRep := rep(record{Name: "BenchmarkX", NsPerOp: 100, BytesPerOp: 0, AllocsPerOp: 0})
	newRep := rep(record{Name: "BenchmarkX", NsPerOp: 100, BytesPerOp: 64, AllocsPerOp: 2})
	breaches, lines := compare(oldRep, newRep, 2.5, 1.5, 2.0)
	if len(breaches) != 0 {
		t.Fatalf("zero baseline cannot form a ratio and must not gate, got %+v", breaches)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "no ratio") {
		t.Fatalf("zero baseline not noted:\n%s", strings.Join(lines, "\n"))
	}
}

func TestToolchainChangeNoted(t *testing.T) {
	oldRep := rep(record{Name: "BenchmarkX", NsPerOp: 1, BytesPerOp: 1, AllocsPerOp: 1})
	newRep := rep(record{Name: "BenchmarkX", NsPerOp: 1, BytesPerOp: 1, AllocsPerOp: 1})
	newRep.GoVersion = "go1.23"
	_, lines := compare(oldRep, newRep, 2.5, 1.5, 2.0)
	if !strings.Contains(strings.Join(lines, "\n"), "toolchain changed") {
		t.Fatalf("toolchain change not noted:\n%s", strings.Join(lines, "\n"))
	}
}

func TestHistoryTable(t *testing.T) {
	reps := []report{
		rep(record{Name: "BenchmarkFleetDay/stations-1000", NsPerOp: 900}),
		rep(
			record{Name: "BenchmarkFleetDay/stations-1000", NsPerOp: 700},
			record{Name: "BenchmarkSweep/workers-1", NsPerOp: 300},
		),
		rep(
			record{Name: "BenchmarkFleetDay/stations-1000", NsPerOp: 450},
			record{Name: "BenchmarkSweep/workers-1", NsPerOp: 310},
		),
	}
	lines := history([]string{"x/BENCH_6.json", "BENCH_7.json", "BENCH_8.json"}, reps)
	joined := strings.Join(lines, "\n")
	if !strings.Contains(lines[0], "BENCH_6") || !strings.Contains(lines[0], "BENCH_8") {
		t.Fatalf("header missing snapshot columns:\n%s", joined)
	}
	if strings.Contains(lines[0], "x/BENCH_6") || strings.Contains(lines[0], ".json") {
		t.Fatalf("column labels not basenames without extension:\n%s", joined)
	}
	var fleet, sweep string
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "BenchmarkFleetDay/stations-1000") {
			fleet = l
		}
		if strings.HasPrefix(l, "BenchmarkSweep/workers-1") {
			sweep = l
		}
	}
	if fleet == "" || sweep == "" {
		t.Fatalf("missing benchmark rows:\n%s", joined)
	}
	if !strings.Contains(fleet, "900") || !strings.Contains(fleet, "450") || !strings.Contains(fleet, "2.00x") {
		t.Fatalf("fleet row must show trajectory 900..450 and 2.00x speedup:\n%s", fleet)
	}
	// Sweep is absent from the first snapshot: the cell prints "-" and no
	// last/first ratio can be formed against a missing first endpoint.
	if !strings.Contains(sweep, "-") || strings.Contains(sweep, "x") {
		t.Fatalf("sweep row must carry a missing-entry dash and no ratio:\n%s", sweep)
	}
}

func TestLoadDropsProcsSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_2.json")
	data := `{"gomaxprocs": 2, "benchmarks": [
		{"name": "BenchmarkFleetDay/stations-2-2", "ns_per_op": 1},
		{"name": "BenchmarkFleetDay/stations-1000-2", "ns_per_op": 2}]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Benchmarks[0].Name + " " + r.Benchmarks[1].Name; got != "BenchmarkFleetDay/stations-2 BenchmarkFleetDay/stations-1000" {
		t.Fatalf("names %q, want the -2 procs suffix dropped", got)
	}
}

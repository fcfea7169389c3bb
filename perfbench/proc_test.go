package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// helperEnv selects a helper mode when the test binary runs as a child.
const helperEnv = "PERFBENCH_TEST_HELPER"

func TestMain(m *testing.M) {
	if mode := os.Getenv(helperEnv); mode != "" {
		os.Exit(helper(mode))
	}
	os.Exit(m.Run())
}

var sink []byte

// helper is the child side of the process tests: "alloc-N" touches N MiB
// and spins briefly; "worker" prints the worker's listening line and
// serves /healthz until killed; "worker-dies" prints the line and exits.
func helper(mode string) int {
	var mb int
	if _, err := fmt.Sscanf(mode, "alloc-%d", &mb); err == nil {
		sink = make([]byte, mb<<20)
		for i := range sink {
			sink[i] = byte(i)
		}
		for end := time.Now().Add(30 * time.Millisecond); time.Now().Before(end); {
		}
		return 0
	}
	switch mode {
	case "worker":
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 1
		}
		fmt.Printf("%s%s\n", listenPrefix, l.Addr())
		_ = http.Serve(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, `{"status":"ok"}`)
		}))
		return 1
	case "worker-dies":
		fmt.Printf("%s127.0.0.1:1\n", listenPrefix)
		return 3
	}
	return 2
}

func helperTool(mode string) tool {
	return tool{path: os.Args[0], env: append(os.Environ(), helperEnv+"="+mode)}
}

func TestUsageSumsCPUAndMaximisesRSSAcrossProcesses(t *testing.T) {
	var u usage
	var cpu float64
	var peaks []int64
	for _, mb := range []int{96, 8} {
		_, _, ps, err := helperTool(fmt.Sprintf("alloc-%d", mb)).run(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var one usage
		one.add(ps)
		cpu += one.CPU
		peaks = append(peaks, one.PeakRSS)
		u.add(ps)
	}
	if diff := u.CPU - cpu; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("CPU = %v, want the sum %v", u.CPU, cpu)
	}
	if u.PeakRSS != slices.Max(peaks) || u.PeakRSS < 96<<10 {
		t.Errorf("PeakRSS = %d KiB, want the larger child's %v (>= 96 MiB)", u.PeakRSS, peaks)
	}
}

func TestChildEnvDropsTheCacheAndPinsProcs(t *testing.T) {
	env := childEnv([]string{"PATH=/bin", "GLACSWEB_CACHE=/somewhere", "GOMAXPROCS=64", "TMPDIR=/tmp"}, 2, "work")
	want := []string{"PATH=/bin", "GOMAXPROCS=2", "TMPDIR=work"}
	if !slices.Equal(env, want) {
		t.Errorf("childEnv = %q, want %q", env, want)
	}
}

func TestWorkerLifecycleReapsAndCounts(t *testing.T) {
	w, err := startWorker(helperTool("worker"), t.TempDir(), "cache")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(w.Addr, "127.0.0.1:") {
		t.Errorf("address %q not read from the listening line", w.Addr)
	}
	if err := w.waitHealthy(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ps, died := w.stop()
	if died || ps == nil || !ps.Exited() && ps.String() != "signal: terminated" {
		t.Errorf("stop: died=%v state=%v, want a live worker terminated and reaped", died, ps)
	}
	var u usage
	u.add(ps)
	if u.CPU == 0 || u.PeakRSS == 0 {
		t.Errorf("reaped worker's usage not counted: %+v", u)
	}
}

func TestDeadWorkerIsReported(t *testing.T) {
	w, err := startWorker(helperTool("worker-dies"), t.TempDir(), "cache")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.waitHealthy(10 * time.Second); err == nil {
		t.Error("a worker that exited reported healthy")
	}
	if _, died := w.stop(); !died {
		t.Error("stop did not report the worker had died")
	}
}

func TestRequeuedCells(t *testing.T) {
	stderr := strings.Join([]string{
		"distrib: worker 127.0.0.1:4 at capacity, shard cells [3] (as-deployed-2008 seed=1, ...) requeued",
		"distrib: worker 127.0.0.1:5 failed shard cells [7 8] (fleet-N seed=2, ...) (attempt 1/3): EOF — requeued",
		"distrib: x5-sync-lag: checkpointed cells [0 1 2 3] (4 of 100 done)",
	}, "\n")
	if lines, n := requeues(stderr); n != 3 || len(lines) != 2 {
		t.Errorf("requeues = %d cells on %q, want 3 cells on the first two lines", n, lines)
	}
}

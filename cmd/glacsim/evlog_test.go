package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/evlog"
	"repro/internal/scenario"
)

// recordRun produces a recorded event log the way -record does: a real
// scenario run with a writer attached, sealed to a file.
func recordRun(t *testing.T, path string, scen string, seed int64, days int) {
	t.Helper()
	d, err := scenario.Build(scen, scenario.Params{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := evlog.NewWriter(f, evlog.Header{Scenario: scen, Seed: seed, Days: days})
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
}

// The -replay acceptance criteria at the function level: a faithful log
// verifies clean, and a single corrupted byte fails naming the exact
// record index.
func TestRunReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.evlog")
	recordRun(t, path, "dual-base", 42, 1)
	if err := runReplay(path); err != nil {
		t.Fatalf("replay of a faithful recording failed: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte deep in the record stream.
	data[len(data)/2] ^= 0x01
	bad := filepath.Join(dir, "bad.evlog")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = runReplay(bad)
	if err == nil {
		t.Fatal("replay of a corrupted log succeeded")
	}
	if !strings.Contains(err.Error(), "record ") {
		t.Fatalf("corruption error %q does not name the record index", err)
	}
}

// -evdiff: identical logs succeed; logs from different seeds fail naming
// the first divergent event index.
func TestRunEvdiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.evlog")
	b := filepath.Join(dir, "b.evlog")
	recordRun(t, a, "dual-base", 42, 1)
	recordRun(t, b, "dual-base", 43, 1)
	if err := runEvdiff(a, a); err != nil {
		t.Fatalf("evdiff of a log against itself failed: %v", err)
	}
	err := runEvdiff(a, b)
	if err == nil {
		t.Fatal("evdiff of different-seed runs succeeded")
	}
	if !strings.Contains(err.Error(), "diverge at event ") {
		t.Fatalf("evdiff error %q does not name the divergent event", err)
	}
}

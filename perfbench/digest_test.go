package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// writeTinySweep runs a tiny real grid and writes its summary JSON into
// dir, with a CSV table beside it, returning the cell count.
func writeTinySweep(t *testing.T, dir string) int {
	t.Helper()
	sum, err := sweep.Run(sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: sweep.SeedRange(1, 2), Days: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(*os.File) error{
		"t.json":      func(f *os.File) error { return sum.WriteJSON(f) },
		"t.cells.csv": func(f *os.File) error { return sum.WriteCellsCSV(f) },
	} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return len(sum.Cells)
}

func pinDir(t *testing.T, dir string) pinned {
	t.Helper()
	files, err := digestDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return pinned{Files: files}
}

func flipByte(t *testing.T, path string, at int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[at] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOneByteFlipFailsEveryCellOfItsUnit(t *testing.T) {
	for _, file := range []string{"t.json", "t.cells.csv"} {
		t.Run(file, func(t *testing.T) {
			dir := t.TempDir()
			n := writeTinySweep(t, dir)
			ref := pinDir(t, dir)
			units := []unit{{id: "t", summary: "t.json", files: []string{"t.json", "t.cells.csv"}, ops: n}}
			if failed, problems := checkUnits(dir, ref, units); len(failed) != 0 || len(problems) != 0 {
				t.Fatalf("pristine outputs: failed %v, problems %v", failed, problems)
			}
			// The middle of the file: inside the data, not just a header.
			info, err := os.Stat(filepath.Join(dir, file))
			if err != nil {
				t.Fatal(err)
			}
			flipByte(t, filepath.Join(dir, file), int(info.Size()/2))
			failed, problems := checkUnits(dir, ref, units)
			if len(failed) != n {
				t.Errorf("one flipped byte in %s failed %d of %d cells, want all", file, len(failed), n)
			}
			if !slices.Contains(problems, file+": digest") {
				t.Errorf("problems %q do not name %s", problems, file)
			}
		})
	}
}

func TestManifestIsExcludedAndStrayFilesReported(t *testing.T) {
	dir := t.TempDir()
	n := writeTinySweep(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(`{"cache":{"dir":"a"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ref := pinDir(t, dir)
	if _, ok := ref.Files["manifest.json"]; ok {
		t.Fatal("manifest.json was digested")
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(`{"cache":{"dir":"b"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	units := []unit{{id: "t", summary: "t.json", files: []string{"t.json", "t.cells.csv"}, ops: n}}
	failed, problems := checkUnits(dir, ref, units)
	if len(failed) != 0 {
		t.Errorf("a changed manifest or a stray file failed cells: %v", failed)
	}
	if !slices.Equal(problems, []string{"stray.txt: unexpected"}) {
		t.Errorf("problems = %q, want the stray file alone", problems)
	}
}

func TestMissingFilesAndCellsFail(t *testing.T) {
	dir := t.TempDir()
	n := writeTinySweep(t, dir)
	ref := pinDir(t, dir)
	// The unit claims one more cell than the summary holds.
	units := []unit{{id: "t", summary: "t.json", files: []string{"t.json", "t.cells.csv"}, ops: n + 1}}
	failed, problems := checkUnits(dir, ref, units)
	if len(failed) != 1 || !failed["t/2"] {
		t.Errorf("failed = %v, want the missing cell t/2 alone (problems %q)", failed, problems)
	}
	if err := os.Remove(filepath.Join(dir, "t.cells.csv")); err != nil {
		t.Fatal(err)
	}
	failed, problems = checkUnits(dir, ref, units[:1])
	if len(failed) != n+1 || !strings.Contains(strings.Join(problems, ";"), "t.cells.csv: missing") {
		t.Errorf("a missing table failed %d cells (%q), want all %d", len(failed), problems, n+1)
	}
}

func TestCompareDigests(t *testing.T) {
	got := map[string]string{"a": "1", "b": "2", "d": "4"}
	want := map[string]string{"a": "1", "b": "9", "c": "3"}
	var names []string
	for _, m := range compareDigests(got, want) {
		names = append(names, m.String())
	}
	if !slices.Equal(names, []string{"b: digest", "c: missing", "d: unexpected"}) {
		t.Errorf("compareDigests = %q", names)
	}
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// excludedOutputs are files the digest check skips: the campaign manifest
// carries the cache directory and cache counters, which differ between a
// cold, a warm and a remote run of one campaign by design.
var excludedOutputs = map[string]bool{"manifest.json": true}

// digestDir returns the sha256 of every regular file under dir, keyed by
// its slash-separated path relative to dir, excluded base names skipped.
func digestDir(dir string) (map[string]string, error) {
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || excludedOutputs[d.Name()] {
			return nil
		}
		if !d.Type().IsRegular() {
			return fmt.Errorf("%s: not a regular file", path)
		}
		sum, err := fileDigest(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)] = sum
		return nil
	})
	return out, err
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer func() { _ = f.Close() }()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// mismatch is one file whose content is not the pinned one.
type mismatch struct {
	File   string
	Reason string // "missing", "unexpected" or "digest"
}

func (m mismatch) String() string { return m.File + ": " + m.Reason }

// compareDigests lists every difference between got and want, sorted by
// file: pinned files that are missing or differ, and files nobody pinned.
func compareDigests(got, want map[string]string) []mismatch {
	var out []mismatch
	for f, w := range want {
		g, ok := got[f]
		switch {
		case !ok:
			out = append(out, mismatch{f, "missing"})
		case g != w:
			out = append(out, mismatch{f, "digest"})
		}
	}
	for f := range got {
		if _, ok := want[f]; !ok {
			out = append(out, mismatch{f, "unexpected"})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].File < out[j].File })
	return out
}

// pinned is the reference for one output set and input variant, taken
// from the program at the commit that pinned it.
type pinned struct {
	// Files maps every output file to its sha256.
	Files map[string]string `json:"files"`
	// StationDays is the simulated station-days the outputs cover.
	StationDays float64 `json:"station_days"`
	// Events is the number of simulator events the outputs took.
	Events uint64 `json:"events"`
}

// pins is the reference table, keyed by output set, then variant.
type pins struct {
	Note string                       `json:"note"`
	Sets map[string]map[string]pinned `json:"sets"`
}

func loadPins(path string) (*pins, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p pins
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &p, nil
}

// lookup returns the reference of one output set and variant.
func (p *pins) lookup(set string, variant int) (pinned, error) {
	ref, ok := p.Sets[set][fmt.Sprint(variant)]
	if !ok || len(ref.Files) == 0 {
		return pinned{}, fmt.Errorf("no pinned outputs for %s variant %d", set, variant)
	}
	return ref, nil
}

func (p *pins) put(set string, variant int, ref pinned) {
	if p.Sets == nil {
		p.Sets = map[string]map[string]pinned{}
	}
	if p.Sets[set] == nil {
		p.Sets[set] = map[string]pinned{}
	}
	p.Sets[set][fmt.Sprint(variant)] = ref
}

func (p *pins) save(path string) error {
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// digestString returns the hex sha256 of s.
func digestString(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

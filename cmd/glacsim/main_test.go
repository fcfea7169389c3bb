package main

import (
	"testing"

	"repro/internal/cliutil"
)

func TestParseShard(t *testing.T) {
	good := []struct {
		in   string
		i, m int
	}{
		{"", 0, 1},
		{"0/1", 0, 1},
		{"0/3", 0, 3},
		{"2/3", 2, 3},
	}
	for _, c := range good {
		i, m, err := parseShard(c.in)
		if err != nil || i != c.i || m != c.m {
			t.Errorf("parseShard(%q) = %d, %d, %v; want %d, %d", c.in, i, m, err, c.i, c.m)
		}
	}
	bad := []string{"3", "a/b", "1/0", "2/2", "3/2", "-1/2", "1/-3", "1/2/3", "/", "1/"}
	for _, in := range bad {
		_, _, err := parseShard(in)
		if err == nil {
			t.Errorf("parseShard(%q) accepted", in)
			continue
		}
		// Malformed shard specs are usage errors: main must print the
		// usage line and exit 2, not 1.
		if !cliutil.IsUsage(err) {
			t.Errorf("parseShard(%q) error %v is not a usage error", in, err)
		}
	}
}

// The zero-input merge must be a usage error (exit 2 with the usage line),
// not a silently successful empty summary — pinned at the function level
// so the dispatch check in run() cannot regress alone.
func TestMergeZeroFilesIsUsageError(t *testing.T) {
	err := runMerge(nil, "text", "")
	if err == nil {
		t.Fatal("merge of zero files succeeded")
	}
	if !cliutil.IsUsage(err) {
		t.Fatalf("merge of zero files returned %v, want a usage error", err)
	}
}

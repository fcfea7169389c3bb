// Package cliutil is the flag plumbing cmd/glacsim and cmd/glacreport
// share: usage errors (a bad flag combination, printed with the tool's
// usage line and exit code 2, distinct from runtime failures with exit 1),
// the -remote and -cache parsers, and the -record-dir cell recorder.
package cliutil

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/deploy"
	"repro/internal/evlog"
	"repro/internal/sweep"
)

// UsageError marks a bad flag combination.
type UsageError struct{ Msg string }

func (e UsageError) Error() string { return e.Msg }

// Usagef returns a formatted UsageError.
func Usagef(format string, a ...any) error {
	return UsageError{Msg: fmt.Sprintf(format, a...)}
}

// IsUsage reports whether err is (or wraps) a UsageError.
func IsUsage(err error) bool {
	var ue UsageError
	return errors.As(err, &ue)
}

// FlagsOutside returns the explicitly-set flag names not in the allowed
// list, sorted — the allowlist check for flags that select an exclusive
// mode (a merge, say): anything outside the mode's surface is reported,
// never silently ignored, including flags added later.
func FlagsOutside(set map[string]bool, allowed ...string) []string {
	ok := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		ok[a] = true
	}
	var bad []string
	for name := range set {
		if !ok[name] {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// Fail prints the error to stderr under the tool's name and exits: usage
// errors add the usage line and exit 2, everything else exits 1.
func Fail(tool, usageLine string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	if IsUsage(err) {
		fmt.Fprintln(os.Stderr, usageLine)
		os.Exit(2)
	}
	os.Exit(1)
}

// ParseWorkerList parses the -remote flag the CLIs share: a
// comma-separated list of worker addresses ("host:port" or full URLs).
// Empty input means no workers (nil, no error); a non-empty input that
// yields no addresses is an error. Duplicate addresses — compared after
// trailing-slash normalisation, so "host:8080" and "host:8080/" collide —
// are a usage error: each address gets its own dispatch loop, so a
// doubled host would silently pull double the shards.
func ParseWorkerList(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var workers []string
	seen := map[string]bool{}
	for _, addr := range strings.Split(s, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		canon := strings.TrimRight(addr, "/")
		if seen[canon] {
			return nil, Usagef("worker %s appears twice in %q — each address gets one dispatch loop, list it once", canon, s)
		}
		seen[canon] = true
		workers = append(workers, addr)
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("no worker addresses in %q", s)
	}
	return workers, nil
}

// CacheEnv is the environment variable supplying a default result-cache
// directory when -cache is not given — the way an operator points every
// tool on a box at one shared cache without editing each invocation.
const CacheEnv = "GLACSWEB_CACHE"

// ResolveCacheDir resolves the -cache/-no-cache flag pair the CLIs share
// into the result-cache directory to open, or "" for no cache. An
// explicit -cache DIR wins; otherwise CacheEnv supplies the default.
// -no-cache turns caching off even under the environment default — which
// is why combining it with an explicit -cache is a usage error rather
// than a precedence puzzle.
func ResolveCacheDir(dir string, noCache bool) (string, error) {
	if noCache {
		if dir != "" {
			return "", Usagef("-cache and -no-cache contradict each other")
		}
		return "", nil
	}
	if dir != "" {
		return dir, nil
	}
	return os.Getenv(CacheEnv), nil
}

// CellRecorder returns the sweep.Grid.Record hook behind the -record-dir
// flag: each cell's event log lands in dir (which must exist) as
// cell-NNNN.evlog, named by global plan index so shard runs recording into
// a shared directory never collide, under the header hdr builds for the
// cell. The hook's finish func seals the log and closes the file.
func CellRecorder(dir string, hdr func(sweep.Cell) evlog.Header) func(sweep.Cell, *deploy.Deployment) (func() error, error) {
	return func(c sweep.Cell, d *deploy.Deployment) (func() error, error) {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("cell-%04d.evlog", c.Index)))
		if err != nil {
			return nil, fmt.Errorf("create cell event log: %w", err)
		}
		w, err := evlog.NewWriter(f, hdr(c))
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		w.Attach(d.Sim)
		return func() error {
			werr := w.Close()
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			return werr
		}, nil
	}
}

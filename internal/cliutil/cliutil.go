// Package cliutil is the flag plumbing and execution front end cmd/glacsim
// and cmd/glacreport share: usage errors (a bad flag combination, printed
// with the tool's usage line and exit code 2, distinct from runtime
// failures with exit 1), the -remote and -cache parsers, and OpenExec,
// which turns the execution flags both tools take into a runner, a result
// cache and a -record-dir recorder.
package cliutil

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/deploy"
	"repro/internal/distrib"
	"repro/internal/evlog"
	"repro/internal/rescache"
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
// yields no addresses is an error. Duplicate addresses — compared as the
// distrib.BaseURL they dispatch to, so "host:8080", "host:8080/" and
// "http://host:8080" collide — are a usage error: each address gets its
// own dispatch loop, so a doubled host would silently pull double the
// shards.
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
		canon := distrib.BaseURL(addr)
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

// Logf is the tools' one stderr logger: a line per call, so progress
// and cache narration never touch the artifact stream on stdout.
func Logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
}

// ExecFlags are the execution flags glacsim -sweep, glacsim -worker and
// glacreport -campaign share, as parsed.
type ExecFlags struct {
	// Set holds the explicitly-set flag names.
	Set        map[string]bool
	Workers    int    // -workers
	Remote     string // -remote
	Cache      string // -cache
	NoCache    bool   // -no-cache
	CacheMaxMB int    // -cache-max-mb
	RecordDir  string // -record-dir
}

// Exec is a validated execution setup.
type Exec struct {
	// Remote is the -remote worker pool; nil means in-process execution.
	Remote []string
	// Cache is the open result cache, nil when caching is off — always
	// with -remote (the workers keep their own caches) and with
	// -record-dir (a cache hit would leave a cell unrecorded).
	Cache *rescache.DiskCache
	// Workers sizes the in-process pool (0 = GOMAXPROCS).
	Workers int
	// RecordDir is the -record-dir root; "" records nothing.
	RecordDir string
}

// OpenExec applies the flag rules both tools share and opens the result
// cache the flags select. A cache flag the run would ignore is a usage
// error, never silently dropped.
func OpenExec(f ExecFlags) (*Exec, error) {
	remote, err := ParseWorkerList(f.Remote)
	if err != nil {
		return nil, Usagef("-remote: %v", err)
	}
	cacheFlag := "" // the cache flag given, -cache over -cache-max-mb
	for _, name := range []string{"cache-max-mb", "cache"} {
		if f.Set[name] {
			cacheFlag = name
		}
	}
	if len(remote) > 0 {
		if f.Set["workers"] {
			return nil, Usagef("-workers sizes the in-process pool; with -remote the workers size their own")
		}
		if f.RecordDir != "" {
			return nil, Usagef("-record-dir records local execution; it cannot reach -remote workers")
		}
		if cacheFlag != "" {
			return nil, Usagef("-%s caches local execution; with -remote give the workers -cache instead", cacheFlag)
		}
	}
	if f.RecordDir != "" && cacheFlag != "" {
		return nil, Usagef("-record-dir needs every cell simulated; it cannot combine with -%s", cacheFlag)
	}
	e := &Exec{Remote: remote, Workers: f.Workers, RecordDir: f.RecordDir}
	if len(remote) > 0 || f.RecordDir != "" {
		return e, nil
	}
	dir, err := ResolveCacheDir(f.Cache, f.NoCache)
	if err != nil {
		return nil, err
	}
	if dir == "" {
		if f.Set["cache-max-mb"] {
			return nil, Usagef("-cache-max-mb bounds a result cache, and this run opens none (-no-cache, or neither -cache nor $%s)", CacheEnv)
		}
		return e, nil
	}
	e.Cache, err = rescache.Open(dir, rescache.Options{MaxBytes: int64(f.CacheMaxMB) << 20, Logf: Logf})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// ResultCache is the cache as a runner or worker takes it: a nil
// interface when caching is off, never a typed-nil *DiskCache.
func (e *Exec) ResultCache() sweep.ResultCache {
	if e.Cache == nil {
		return nil
	}
	return e.Cache
}

// Runner is the execute stage: the remote pool, with every shard request
// naming the hook set the workers rebuild the grid's behaviour from, or
// the in-process pool consulting the cache.
func (e *Exec) Runner(hooks string) sweep.Runner {
	if len(e.Remote) > 0 {
		return &distrib.RemoteRunner{Workers: e.Remote, Hooks: hooks, Logf: Logf}
	}
	return sweep.LocalRunner{Workers: e.Workers, Cache: e.ResultCache()}
}

// LogCacheStats writes the post-run cache-stats line to stderr when a
// cache is open, so stdout stays byte-identical to an uncached run.
func (e *Exec) LogCacheStats() {
	if c := e.Cache; c != nil {
		st := c.Stats()
		Logf("cache %s: %d hits, %d misses, %d stores, %d evictions (%d entries, %d bytes)",
			c.Dir(), st.Hits, st.Misses, st.Stores, st.Evictions, c.Len(), c.SizeBytes())
	}
}

// Record sets g's Record hook for -record-dir, and does nothing without
// it: each cell's event log lands in the record directory's sub
// directory as cell-NNNN.evlog, named by global plan index so shard runs
// recording into one directory never collide. A cell's header is run —
// the fields the cell does not carry: Start, SpecialFirst, Hooks — plus
// the cell's own identity and the plan fingerprint, so an -evdiff across
// record directories can tell logs of different grids apart. Call it
// once g's axes are final.
func (e *Exec) Record(g *sweep.Grid, sub string, run evlog.Header) error {
	if e.RecordDir == "" {
		return nil
	}
	plan, err := sweep.Plan(*g)
	if err != nil {
		return err
	}
	run.Fingerprint = sweep.Fingerprint(*g, plan)
	dir := filepath.Join(e.RecordDir, sub)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create record dir: %w", err)
	}
	g.Record = func(c sweep.Cell, d *deploy.Deployment) (func() error, error) {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("cell-%04d.evlog", c.Index)))
		if err != nil {
			return nil, fmt.Errorf("create cell event log: %w", err)
		}
		h := run
		h.Scenario, h.Seed, h.Stations, h.Probes, h.Days = c.Scenario, c.Seed, c.Stations, c.Probes, c.Days
		w, err := evlog.NewWriter(f, h)
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
	return nil
}

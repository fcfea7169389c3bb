package cliutil

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/distrib"
	"repro/internal/evlog"
	"repro/internal/rescache"
	"repro/internal/sweep"
)

func TestParseWorkerList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a:1", []string{"a:1"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , b:2 ,", []string{"a:1", "b:2"}},
		{"http://a:1/,b:2", []string{"http://a:1/", "b:2"}},
	}
	for _, tc := range cases {
		got, err := ParseWorkerList(tc.in)
		if err != nil {
			t.Errorf("ParseWorkerList(%q) error: %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseWorkerList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseWorkerListRejectsEmptyList(t *testing.T) {
	if _, err := ParseWorkerList(" , ,"); err == nil {
		t.Fatal("list of empty addresses accepted")
	}
}

// A doubled worker address would get two dispatch loops and silently pull
// double the shards — rejected as a usage error, with trailing slashes
// normalised away first so "host:1" and "host:1/" count as the same
// worker (baseURL strips them before dialling too).
func TestParseWorkerListRejectsDuplicates(t *testing.T) {
	cases := []string{
		"a:1,a:1",
		"a:1,b:2,a:1",
		"a:1/,a:1",
		"a:1, a:1/ ",
		"http://a:1,http://a:1///",
		"a:1,http://a:1/",
		"127.0.0.1:9193,http://127.0.0.1:9193/",
	}
	for _, in := range cases {
		_, err := ParseWorkerList(in)
		if err == nil {
			t.Errorf("ParseWorkerList(%q) accepted a duplicate worker", in)
			continue
		}
		if !IsUsage(err) {
			t.Errorf("ParseWorkerList(%q) error %v is not a usage error", in, err)
		}
		if !strings.Contains(err.Error(), "a:1") && !strings.Contains(err.Error(), "127.0.0.1:9193") {
			t.Errorf("error %q does not name the duplicated worker", err)
		}
	}
	// Same host under two schemes: two different URLs, not flagged (the
	// operator may genuinely front one host two ways).
	if _, err := ParseWorkerList("http://a:1,https://a:1"); err != nil {
		t.Errorf("distinct schemes rejected: %v", err)
	}
}

func TestResolveCacheDir(t *testing.T) {
	t.Setenv(CacheEnv, "")
	cases := []struct {
		dir     string
		noCache bool
		env     string
		want    string
	}{
		{"", false, "", ""},
		{"/tmp/c", false, "", "/tmp/c"},
		{"", false, "/env/c", "/env/c"},
		{"/tmp/c", false, "/env/c", "/tmp/c"},
		{"", true, "/env/c", ""},
		{"", true, "", ""},
	}
	for _, tc := range cases {
		t.Setenv(CacheEnv, tc.env)
		got, err := ResolveCacheDir(tc.dir, tc.noCache)
		if err != nil {
			t.Errorf("ResolveCacheDir(%q, %v) [env %q] error: %v", tc.dir, tc.noCache, tc.env, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ResolveCacheDir(%q, %v) [env %q] = %q, want %q", tc.dir, tc.noCache, tc.env, got, tc.want)
		}
	}
}

func TestResolveCacheDirRejectsContradiction(t *testing.T) {
	_, err := ResolveCacheDir("/tmp/c", true)
	if err == nil || !IsUsage(err) {
		t.Fatalf("-cache with -no-cache should be a usage error, got %v", err)
	}
}

func TestFlagsOutside(t *testing.T) {
	set := map[string]bool{"worker": true, "days": true, "seeds": true}
	got := FlagsOutside(set, "worker", "listen")
	if !reflect.DeepEqual(got, []string{"days", "seeds"}) {
		t.Fatalf("FlagsOutside = %v, want the sorted offenders", got)
	}
	if out := FlagsOutside(set, "worker", "days", "seeds"); out != nil {
		t.Fatalf("FlagsOutside = %v, want nil when everything is allowed", out)
	}
}

func TestIsUsage(t *testing.T) {
	if !IsUsage(Usagef("bad flags")) {
		t.Fatal("Usagef result not recognised")
	}
	if !IsUsage(fmt.Errorf("wrap: %w", Usagef("inner"))) {
		t.Fatal("wrapped usage error not recognised")
	}
	if IsUsage(fmt.Errorf("plain failure")) {
		t.Fatal("plain error misclassified as usage")
	}
}

// Every flag combination the shared front end refuses, for both tools: a
// usage error, raised before any cache directory is created.
func TestOpenExecRejectsFlagCombinations(t *testing.T) {
	t.Setenv(CacheEnv, "")
	cacheDir := filepath.Join(t.TempDir(), "c")
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name string
		f    ExecFlags
	}{
		{"empty remote list", ExecFlags{Set: set("remote"), Remote: " , "}},
		{"duplicate workers", ExecFlags{Set: set("remote"), Remote: "h:1,h:1/"}},
		{"workers+remote", ExecFlags{Set: set("workers", "remote"), Workers: 2, Remote: "h:1"}},
		{"record-dir+remote", ExecFlags{Set: set("record-dir", "remote"), Remote: "h:1", RecordDir: "/tmp/r"}},
		{"cache+remote", ExecFlags{Set: set("cache", "remote"), Remote: "h:1", Cache: cacheDir}},
		{"cache-max-mb+remote", ExecFlags{Set: set("cache-max-mb", "remote"), Remote: "h:1", CacheMaxMB: 8}},
		{"record-dir+cache", ExecFlags{Set: set("cache", "record-dir"), Cache: cacheDir, RecordDir: "/tmp/r"}},
		{"record-dir+cache-max-mb", ExecFlags{Set: set("cache-max-mb", "record-dir"), CacheMaxMB: 8, RecordDir: "/tmp/r"}},
		{"cache+no-cache", ExecFlags{Set: set("cache", "no-cache"), Cache: cacheDir, NoCache: true}},
		{"cache-max-mb+no-cache", ExecFlags{Set: set("cache-max-mb", "no-cache"), NoCache: true, CacheMaxMB: 8}},
		{"cache-max-mb without a cache", ExecFlags{Set: set("cache-max-mb"), CacheMaxMB: 8}},
	}
	for _, c := range cases {
		_, err := OpenExec(c.f)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !IsUsage(err) {
			t.Errorf("%s: returned %v, want a usage error", c.name, err)
		}
		if _, err := os.Stat(cacheDir); !os.IsNotExist(err) {
			t.Fatalf("%s: rejected flags still created the cache directory", c.name)
		}
	}
}

// The runs the front end accepts: -cache-max-mb bounds an explicit or
// environment cache, and -remote and -record-dir runs never open one.
func TestOpenExecCacheSelection(t *testing.T) {
	envDir := t.TempDir()
	t.Setenv(CacheEnv, envDir)
	cases := []struct {
		name    string
		f       ExecFlags
		wantDir string
	}{
		{"env cache", ExecFlags{}, envDir},
		{"env cache bounded", ExecFlags{Set: map[string]bool{"cache-max-mb": true}, CacheMaxMB: 1}, envDir},
		{"remote ignores the env cache", ExecFlags{Set: map[string]bool{"remote": true}, Remote: "h:1"}, ""},
		{"record-dir ignores the env cache", ExecFlags{Set: map[string]bool{"record-dir": true}, RecordDir: t.TempDir()}, ""},
		{"no-cache", ExecFlags{Set: map[string]bool{"no-cache": true}, NoCache: true}, ""},
	}
	for _, c := range cases {
		ex, err := OpenExec(c.f)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		switch {
		case c.wantDir == "" && ex.Cache != nil:
			t.Errorf("%s: opened a cache at %s", c.name, ex.Cache.Dir())
		case c.wantDir != "" && (ex.Cache == nil || ex.Cache.Dir() != c.wantDir):
			t.Errorf("%s: cache %v, want one at %s", c.name, ex.Cache, c.wantDir)
		}
	}
}

// The -cache flag surface: off by default, honouring $GLACSWEB_CACHE,
// -no-cache winning over the environment, and the contradictory explicit
// pair refused as a usage error.
func TestOpenCache(t *testing.T) {
	openCache := func(dir string, noCache bool) (*rescache.DiskCache, error) {
		ex, err := OpenExec(ExecFlags{Set: map[string]bool{"cache": dir != "", "no-cache": noCache}, Cache: dir, NoCache: noCache})
		if err != nil {
			return nil, err
		}
		return ex.Cache, nil
	}
	t.Setenv(CacheEnv, "")
	if c, err := openCache("", false); c != nil || err != nil {
		t.Fatalf("openCache with nothing set = %v, %v; want no cache", c, err)
	}
	dir := t.TempDir()
	c, err := openCache(dir, false)
	if err != nil || c == nil {
		t.Fatalf("openCache(%q) = %v, %v", dir, c, err)
	}
	if c.Dir() != dir {
		t.Fatalf("cache rooted at %q, want %q", c.Dir(), dir)
	}
	t.Setenv(CacheEnv, dir)
	if c, err := openCache("", false); err != nil || c == nil || c.Dir() != dir {
		t.Fatalf("openCache under $%s = %v, %v; want the env cache", CacheEnv, c, err)
	}
	if c, err := openCache("", true); c != nil || err != nil {
		t.Fatalf("-no-cache under $%s = %v, %v; want no cache", CacheEnv, c, err)
	}
	if _, err := openCache(dir, true); err == nil || !IsUsage(err) {
		t.Fatalf("-cache with -no-cache returned %v, want a usage error", err)
	}
}

// The runner: the in-process pool with a nil-interface cache when caching
// is off, the open cache otherwise, and the remote pool naming the hook
// set.
func TestExecRunner(t *testing.T) {
	lr, ok := (&Exec{Workers: 3}).Runner("ignored").(sweep.LocalRunner)
	if !ok || lr.Workers != 3 || lr.Cache != nil {
		t.Fatalf("uncached runner = %#v, want a LocalRunner of 3 with a nil cache", lr)
	}
	dc, err := rescache.Open(t.TempDir(), rescache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lr := (&Exec{Cache: dc}).Runner("").(sweep.LocalRunner); lr.Cache != sweep.ResultCache(dc) {
		t.Fatalf("cached runner cache = %v, want the open cache", lr.Cache)
	}
	rr, ok := (&Exec{Remote: []string{"h:1"}}).Runner("campaign/x9").(*distrib.RemoteRunner)
	if !ok || rr.Hooks != "campaign/x9" || !reflect.DeepEqual(rr.Workers, []string{"h:1"}) || rr.Logf == nil {
		t.Fatalf("remote runner = %#v, want the pool naming campaign/x9 and logging", rr)
	}
}

// The -record-dir hook records every cell into its own replayable log,
// named by global plan index, and does nothing without a record directory.
func TestRecordCellHook(t *testing.T) {
	dir := t.TempDir()
	g := sweep.Grid{Scenarios: []string{"dual-base"}, Seeds: []int64{1, 2}, Days: 1}
	if err := (&Exec{}).Record(&g, "", evlog.Header{}); err != nil || g.Record != nil {
		t.Fatalf("Record without a record directory = %v and a hook %v, want neither", err, g.Record != nil)
	}
	plan, err := sweep.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	fp := sweep.Fingerprint(g, plan)
	if err := (&Exec{RecordDir: dir}).Record(&g, "", evlog.Header{}); err != nil {
		t.Fatal(err)
	}
	sum, err := sweep.Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range sum.Cells {
		if cr.Err != "" {
			t.Fatalf("cell %d failed: %s", cr.Cell.Index, cr.Err)
		}
	}
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, "cell-000"+string(rune('0'+i))+".evlog")
		l, err := evlog.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if l.Header.Fingerprint != fp {
			t.Errorf("cell %d: header fingerprint %q, want the plan's %q", i, l.Header.Fingerprint, fp)
		}
		if l.Header.Seed != int64(i+1) {
			t.Errorf("cell %d: header seed %d, want %d", i, l.Header.Seed, i+1)
		}
		div, err := evlog.Verify(l)
		if err != nil {
			t.Fatal(err)
		}
		if div != nil {
			t.Errorf("cell %d: recorded log does not replay: %v", i, div)
		}
	}
}

// Campaign recordings land in a per-experiment subdirectory under headers
// naming the hook set, which header-only replay then refuses.
func TestRecordCellHookSubdirAndHooks(t *testing.T) {
	dir := t.TempDir()
	g := sweep.Grid{Scenarios: []string{"dual-base"}, Seeds: []int64{1}, Days: 1}
	if err := (&Exec{RecordDir: dir}).Record(&g, "x9", evlog.Header{Hooks: "campaign/x9"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Run(g, 1); err != nil {
		t.Fatal(err)
	}
	l, err := evlog.ReadFile(filepath.Join(dir, "x9", "cell-0000.evlog"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Header.Hooks != "campaign/x9" || l.Header.Scenario != "dual-base" || l.Header.Seed != 1 {
		t.Fatalf("header = %+v, want the cell's identity under the campaign/x9 hook set", l.Header)
	}
	if _, err := evlog.Verify(l); err == nil {
		t.Fatal("a hook-set recording replayed from its header alone")
	}
}

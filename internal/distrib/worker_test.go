package distrib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/rescache"
	"repro/internal/sweep"
)

// testTagHooks is a registered hook set for the tests: its args carry a
// number the attached Drive reports as the "hook-tag" metric after the
// cell's default run.
func testTagHooks(args string, g *sweep.Grid) error {
	tag, err := strconv.ParseFloat(args, 64)
	if err != nil {
		return fmt.Errorf("bad tag %q: %w", args, err)
	}
	g.Drive = func(c sweep.Cell, d *deploy.Deployment) ([]sweep.Metric, error) {
		if err := d.RunDays(c.Days); err != nil {
			return nil, err
		}
		return []sweep.Metric{{Name: "hook-tag", Value: tag}}, nil
	}
	return nil
}

// blockGate gates the "disttest/block" hook set's Drive, so a test can
// hold a shard in flight while probing the worker's concurrency bound. The
// channel is swapped per test run, keeping the package stable under
// -count=N.
var blockGate = struct {
	mu sync.Mutex
	ch chan struct{}
}{ch: make(chan struct{})}

func blockChan() chan struct{} {
	blockGate.mu.Lock()
	defer blockGate.mu.Unlock()
	return blockGate.ch
}

func resetBlockChan() {
	blockGate.mu.Lock()
	defer blockGate.mu.Unlock()
	blockGate.ch = make(chan struct{})
}

// countedRuns counts the cells the "disttest/count" hook set saw run.
var countedRuns atomic.Int64

func init() {
	RegisterHooks("disttest/tag", testTagHooks)
	RegisterHooks("disttest/count", func(_ string, g *sweep.Grid) error {
		g.Observe = func(sweep.Cell, *deploy.Deployment) []sweep.Metric {
			countedRuns.Add(1)
			return nil
		}
		return nil
	})
	RegisterHooks("disttest/block", func(_ string, g *sweep.Grid) error {
		g.Drive = func(sweep.Cell, *deploy.Deployment) ([]sweep.Metric, error) {
			<-blockChan()
			return nil, nil
		}
		return nil
	})
}

// shardRequest builds a request for the whole plan of g. An unplannable
// grid yields a request carrying just its spec, which the worker must
// reject with the Plan error.
func shardRequest(t *testing.T, g sweep.Grid, hooks, hookArgs string) ShardRequest {
	t.Helper()
	req := ShardRequest{V: WireVersion, Grid: SpecOf(g), Hooks: hooks, HookArgs: hookArgs}
	plan, err := sweep.Plan(g)
	if err != nil {
		return req
	}
	req.Fingerprint = sweep.Fingerprint(g, plan)
	req.TotalCells = len(plan)
	for i := range plan {
		req.Indices = append(req.Indices, i)
	}
	return req
}

// post sends a shard request to a test server and returns the response.
func post(t *testing.T, url string, req ShardRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestWorkerServesShard(t *testing.T) {
	srv := httptest.NewServer(&Worker{})
	defer srv.Close()
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5}, Days: 1}
	resp := post(t, srv.URL, shardRequest(t, g, "", ""))
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	sum, err := sweep.ReadSummary(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum.String() != local.String() {
		t.Fatal("worker summary differs from the local run")
	}
}

func TestWorkerHealthz(t *testing.T) {
	srv := httptest.NewServer(&Worker{MaxShards: 5})
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.MaxShards != 5 || h.Active != 0 {
		t.Fatalf("health = %+v", h)
	}
}

func TestWorkerRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(&Worker{})
	defer srv.Close()
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5}, Days: 1}

	check := func(name string, wantStatus int, wantBody string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer func() { _ = resp.Body.Close() }()
		body := new(bytes.Buffer)
		_, _ = body.ReadFrom(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %s, want %d (%s)", name, resp.Status, wantStatus, strings.TrimSpace(body.String()))
		}
		if wantBody != "" && !strings.Contains(body.String(), wantBody) {
			t.Errorf("%s: body %q does not mention %q", name, strings.TrimSpace(body.String()), wantBody)
		}
	}

	resp, err := http.Get(srv.URL + "/shard")
	check("GET /shard", http.StatusMethodNotAllowed, "POST only", resp, err)

	resp, err = http.Post(srv.URL+"/healthz", "application/json", strings.NewReader("{}"))
	check("POST /healthz", http.StatusMethodNotAllowed, "GET only", resp, err)

	resp, err = http.Get(srv.URL + "/no-such-route")
	check("unknown route", http.StatusNotFound, "", resp, err)

	resp, err = http.Post(srv.URL+"/shard", "application/json", strings.NewReader("{not json"))
	check("malformed body", http.StatusBadRequest, "bad shard request", resp, err)

	resp, err = http.Post(srv.URL+"/shard", "application/json", strings.NewReader(`{"v":1,"indices":[0,`))
	check("truncated body", http.StatusBadRequest, "unexpected EOF", resp, err)

	// A body past the 16 MiB bound: a well-formed string that never ends
	// within the limit, so the size and not the syntax is what fails.
	huge := `{"pad":"` + strings.Repeat("a", maxRequestBytes) + `"}`
	resp, err = http.Post(srv.URL+"/shard", "application/json", strings.NewReader(huge))
	check("oversized body", http.StatusRequestEntityTooLarge, "too large", resp, err)

	old := shardRequest(t, g, "", "")
	old.V = 99
	check("wrong version", http.StatusBadRequest, "version 99", post(t, srv.URL, old), nil)

	unknown := shardRequest(t, g, "no-such-hooks", "")
	check("unknown hook set", http.StatusBadRequest, "not registered", post(t, srv.URL, unknown), nil)

	drifted := shardRequest(t, g, "", "")
	drifted.Fingerprint = "feedfacefeedface"
	check("fingerprint drift", http.StatusConflict, "plan mismatch", post(t, srv.URL, drifted), nil)

	outOfRange := shardRequest(t, g, "", "")
	outOfRange.Indices = []int{0, 999}
	check("index out of range", http.StatusBadRequest, "outside", post(t, srv.URL, outOfRange), nil)

	empty := shardRequest(t, sweep.Grid{}, "", "")
	check("invalid grid", http.StatusBadRequest, "no scenarios", post(t, srv.URL, empty), nil)
}

// The concurrency bound: with MaxShards 1 and a shard held in flight by
// the blocking hook set, the next request gets 503 + Retry-After instead
// of piling up.
func TestWorkerBoundsConcurrentShards(t *testing.T) {
	resetBlockChan()
	srv := httptest.NewServer(&Worker{MaxShards: 1})
	defer srv.Close()
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5}, Days: 1}
	req := shardRequest(t, g, "disttest/block", "")

	firstDone := make(chan *http.Response)
	go func() { firstDone <- post(t, srv.URL, req) }()

	// Wait until the worker reports the first shard in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h Health
		err = json.NewDecoder(resp.Body).Decode(&h)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Active == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first shard never went in flight")
		}
		time.Sleep(10 * time.Millisecond)
	}

	second := post(t, srv.URL, req)
	if second.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second shard got %s, want 503", second.Status)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	_ = second.Body.Close()

	close(blockChan())
	first := <-firstDone
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first shard got %s after release", first.Status)
	}
	_ = first.Body.Close()
}

// Serving a shard fills the worker's one-entry plan cache, and /healthz
// reports which plan it holds — the coordinator-visible state a
// retirement message quotes.
func TestWorkerHealthzReportsPlanFingerprint(t *testing.T) {
	srv := httptest.NewServer(&Worker{})
	defer srv.Close()
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5}, Days: 1}
	req := shardRequest(t, g, "", "")
	resp := post(t, srv.URL, req)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hresp.Body.Close() }()
	var h Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.PlanFP != req.Fingerprint {
		t.Fatalf("healthz plan fingerprint %q, want %q", h.PlanFP, req.Fingerprint)
	}
}

// Two worker daemons pointed at one cache directory warm it together: the
// second worker serves cells the first one simulated, byte-identically,
// without running them again.
func TestWorkerPoolSharesOneCache(t *testing.T) {
	dir := t.TempDir()
	open := func() *rescache.DiskCache {
		c, err := rescache.Open(dir, rescache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	first := httptest.NewServer(&Worker{Cache: open()})
	defer first.Close()
	secondCache := open()
	second := httptest.NewServer(&Worker{Cache: secondCache})
	defer second.Close()

	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5, 6}, Days: 1}
	req := shardRequest(t, g, "", "")
	read := func(srv string) []byte {
		resp := post(t, srv, req)
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s", resp.Status)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cold := read(first.URL)
	warm := read(second.URL)
	if !bytes.Equal(cold, warm) {
		t.Fatal("second worker's cached reply differs from the first worker's simulated one")
	}
	if st := secondCache.Stats(); st.Hits != 2 || st.Misses != 0 || st.Stores != 0 {
		t.Fatalf("second worker's cache stats = %+v, want 2 hits and nothing simulated", st)
	}
}

// lineLog collects a worker's Logf lines.
type lineLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *lineLog) logf(format string, a ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, a...))
}

func (l *lineLog) last() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.lines) == 0 {
		return ""
	}
	return l.lines[len(l.lines)-1]
}

// A shard whose cells are all in the worker's cache is served without
// running a single cell, byte-identical to the cold reply, and the
// worker's log line says so.
func TestWorkerServesWarmShardWithoutSimulating(t *testing.T) {
	cache, err := rescache.Open(t.TempDir(), rescache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var log lineLog
	srv := httptest.NewServer(&Worker{Cache: cache, Logf: log.logf})
	defer srv.Close()
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5, 6, 7}, Days: 1}
	req := shardRequest(t, g, "disttest/count", "")
	read := func() []byte {
		t.Helper()
		resp := post(t, srv.URL, req)
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s", resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	before := countedRuns.Load()
	cold := read()
	if n := countedRuns.Load() - before; n != 3 {
		t.Fatalf("cold shard ran %d cells, want 3", n)
	}
	if want := "served 3 cells (simulated 3)"; !strings.Contains(log.last(), want) {
		t.Fatalf("cold log line %q lacks %q", log.last(), want)
	}
	before = countedRuns.Load()
	warm := read()
	if n := countedRuns.Load() - before; n != 0 {
		t.Fatalf("warm shard ran %d cells, want none", n)
	}
	if want := "served 3 cells (simulated 0)"; !strings.Contains(log.last(), want) {
		t.Fatalf("warm log line %q lacks %q", log.last(), want)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm reply differs from the cold one")
	}
}

// A closed-loop client — next shard the moment the previous reply has
// decoded, exactly RemoteRunner's dispatch loop — never meets a 503 at
// MaxShards 1: the worker frees its slot before writing the reply. The
// worker's Logf stalls after every reply, widening the window between the
// reply's last byte and the handler's return.
func TestWorkerFreesSlotBeforeReply(t *testing.T) {
	srv := httptest.NewServer(&Worker{MaxShards: 1, Logf: func(string, ...any) {
		time.Sleep(20 * time.Millisecond)
	}})
	defer srv.Close()
	// Enough cells that the reply outgrows the server's write buffer and
	// reaches the client before the handler returns.
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: sweep.SeedRange(1, 16), Days: 1}
	req := shardRequest(t, g, "", "")
	for i := 0; i < 10; i++ {
		resp := post(t, srv.URL, req)
		if resp.StatusCode != http.StatusOK {
			_ = resp.Body.Close()
			t.Fatalf("shard %d: status %s, want 200", i, resp.Status)
		}
		_, err := sweep.ReadSummary(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// The daemon drops a connection that never sends its request header
// instead of holding the socket open forever.
func TestServeClosesHeaderlessConnection(t *testing.T) {
	defer func(d time.Duration) { serveReadHeaderTimeout = d }(serveReadHeaderTimeout)
	serveReadHeaderTimeout = 100 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- Serve(l, &Worker{}) }()
	defer func() {
		_ = l.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a header-less connection: %v, want the worker to close it (EOF)", err)
	}
}

// A RemoteRunner sweeping through a worker that Serve runs on a real
// listener, as glacsim -worker does, matches the local run, and the
// per-configuration seed fold survives the wire.
func TestServeRunsRemoteSweep(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- Serve(l, &Worker{MaxShards: 2}) }()
	defer func() {
		_ = l.Close()
		<-served
	}()

	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: sweep.SeedRange(9, 2), Days: 2}
	remote, err := sweep.RunShardWith(g, &RemoteRunner{Workers: []string{l.Addr().String()}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !remote.Complete() || remote.String() != local.String() {
		t.Fatal("remote sweep differs from the local run")
	}
	st, ok := remote.Groups[0].Stat("runs")
	if !ok || st.N != 2 || st.CI95 < 0 {
		t.Fatalf("runs stat folded oddly: ok=%v %+v", ok, st)
	}
}

package main

// The traced run: the same work as the untraced workloads, done in this
// process through the layers' public APIs, with timing wrappers at each
// layer boundary — the sweep.Runner, the sweep.ResultCache over
// *rescache.DiskCache, the http.Handler over *distrib.Worker and the
// coordinator's HTTP transport — plus a Grid.Record hook that stamps every
// simulated cell. Observations stay in memory until the run reports.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/deploy"
	"repro/internal/distrib"
	"repro/internal/evlog"
	"repro/internal/rescache"
	"repro/internal/scenario"
	"repro/internal/simenv"
	"repro/internal/sweep"
)

// iterTrace is what one traced iteration observed.
type iterTrace struct {
	wall     float64 // seconds of the iteration's own work
	excluded float64 // seconds spent inside the iteration on setup or reference passes

	planMs, execS, reduceMs, encodeMs float64
	encodeBytes                       int64
	cellBusyS                         float64
	cellsTotal, cellsSimulated        int
	events                            uint64
	stationDays                       float64
	allocBytes, mallocs               uint64
	gcCycles                          uint32
	campaignExecS                     map[string]float64

	runs, completedRuns, probeReadings, commsFailures, tracePoints int
	mbToServer                                                     float64

	gets, hits, puts        int
	bytesRead, bytesWritten int64

	shards, rejected503, shardErrors, requeuedCells int
	requestBytes, replyBytes                        int64
	checkpointS, serveS                             float64

	records                 uint64
	logBytes                int64
	execPlainS, execRecS    float64
	readS, verifyS          float64
	divergences             int
	failedOps               map[string]bool
	problems                []string
	summaries               []*sweep.Summary
	summaryJSON             [][]byte
	decodeS, codecS         float64
	decodeBytes, codecCells int64
}

// traceRun accumulates a traced run's observations.
type traceRun struct {
	mu    sync.Mutex
	cur   *iterTrace
	iters []*iterTrace

	cellRunMs, getUs, putUs, openMs, rttMs, serveMs, overheadMs []float64
	rtt, serve                                                  map[string]float64
}

func newTraceRun() *traceRun {
	return &traceRun{rtt: map[string]float64{}, serve: map[string]float64{}}
}

func (tr *traceRun) begin() {
	tr.cur = &iterTrace{campaignExecS: map[string]float64{}, failedOps: map[string]bool{}}
}

// end closes the iteration: it pairs shard round trips with their serve
// times, then makes the direct layer calls on the iteration's summaries
// (wire decode, cell codec), outside the iteration's wall time.
func (tr *traceRun) end() {
	for id, rtt := range tr.rtt {
		if s, ok := tr.serve[id]; ok {
			tr.overheadMs = append(tr.overheadMs, rtt-s)
		}
	}
	tr.rtt, tr.serve = map[string]float64{}, map[string]float64{}
	c := tr.cur
	for i, sum := range c.summaries {
		t0 := time.Now()
		if _, err := sweep.ReadSummary(bytes.NewReader(c.summaryJSON[i])); err != nil {
			c.problems = append(c.problems, "wire decode: "+err.Error())
		}
		c.decodeS += time.Since(t0).Seconds()
		c.decodeBytes += int64(len(c.summaryJSON[i]))
		var buf bytes.Buffer
		t1 := time.Now()
		for _, cr := range sum.Cells {
			buf.Reset()
			if err := sweep.EncodeCell(&buf, cr); err != nil {
				c.problems = append(c.problems, "cell encode: "+err.Error())
				break
			}
			if _, err := sweep.DecodeCell(&buf); err != nil {
				c.problems = append(c.problems, "cell decode: "+err.Error())
				break
			}
		}
		c.codecS += time.Since(t1).Seconds()
		c.codecCells += int64(len(sum.Cells))
	}
	c.summaries, c.summaryJSON = nil, nil
	tr.iters = append(tr.iters, c)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// record is the harness Grid.Record hook: it stamps the cell's start
// after Build and, when the cell finishes, its run time, its simulator
// events and the station-days it simulated.
func (tr *traceRun) record(_ sweep.Cell, d *deploy.Deployment) (func() error, error) {
	start, simStart, stations := time.Now(), d.Sim.Now(), len(d.Stations)
	return func() error {
		el := time.Since(start)
		days := d.Sim.Now().Sub(simStart).Hours() / 24 * float64(stations)
		ev := d.Sim.Processed()
		tr.mu.Lock()
		defer tr.mu.Unlock()
		tr.cellRunMs = append(tr.cellRunMs, float64(el)/1e6)
		tr.cur.cellBusyS += el.Seconds()
		tr.cur.cellsSimulated++
		tr.cur.events += ev
		tr.cur.stationDays += days
		return nil
	}, nil
}

// activeTrace is the traced run the wire-side hook sets report to.
var activeTrace atomic.Pointer[traceRun]

// benchHooks names the harness hook set of a campaign entry.
func benchHooks(id string) string { return "perfbench/" + id }

func init() {
	// Grid.Record does not cross the wire, so a worker reattaches it: the
	// harness hook set grafts the entry's own campaign hooks, then the
	// stamping hook. Hooks do not enter the plan fingerprint, so the cells
	// and the cache keys are the campaign's own.
	for _, e := range campaign.Entries() {
		id := e.ID
		distrib.RegisterHooks(benchHooks(id), func(args string, g *sweep.Grid) error {
			h, ok := distrib.LookupHooks(campaign.HooksName(id))
			if !ok {
				return fmt.Errorf("hook set %q not registered", campaign.HooksName(id))
			}
			if err := h(args, g); err != nil {
				return err
			}
			if tr := activeTrace.Load(); tr != nil {
				g.Record = tr.record
			}
			return nil
		})
	}
}

// timedRunner times every call into the runner it wraps.
type timedRunner struct {
	inner sweep.PlannedRunner
	spent time.Duration
}

func (r *timedRunner) Run(g sweep.Grid, cells []sweep.Cell) ([]sweep.CellResult, error) {
	t0 := time.Now()
	defer func() { r.spent += time.Since(t0) }()
	return r.inner.Run(g, cells)
}

func (r *timedRunner) RunPlanned(g sweep.Grid, fp string, total int, cells []sweep.Cell) ([]sweep.CellResult, error) {
	t0 := time.Now()
	defer func() { r.spent += time.Since(t0) }()
	return r.inner.RunPlanned(g, fp, total, cells)
}

// timedCache times every Get and Put of the cache it wraps and counts the
// cell payload bytes that pass.
type timedCache struct {
	inner sweep.ResultCache
	tr    *traceRun
}

func (c timedCache) Get(fp string, cell sweep.Cell) (sweep.CellResult, bool) {
	t0 := time.Now()
	cr, ok := c.inner.Get(fp, cell)
	us := float64(time.Since(t0)) / 1e3
	var n int64
	if ok {
		n = encodedSize(cr)
	}
	c.tr.mu.Lock()
	defer c.tr.mu.Unlock()
	c.tr.getUs = append(c.tr.getUs, us)
	c.tr.cur.gets++
	if ok {
		c.tr.cur.hits++
		c.tr.cur.bytesRead += n
	}
	return cr, ok
}

func (c timedCache) Put(fp string, cr sweep.CellResult) {
	t0 := time.Now()
	c.inner.Put(fp, cr)
	us := float64(time.Since(t0)) / 1e3
	n := encodedSize(cr)
	c.tr.mu.Lock()
	defer c.tr.mu.Unlock()
	c.tr.putUs = append(c.tr.putUs, us)
	c.tr.cur.puts++
	c.tr.cur.bytesWritten += n
}

// encodedSize is a cell's payload size in the cell codec.
func encodedSize(cr sweep.CellResult) int64 {
	var cw countWriter
	// countWriter never fails, and a cell that cannot encode would
	// already have failed the cache Put this sizes.
	_ = sweep.EncodeCell(&cw, cr)
	return cw.n
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// shardHeader carries the coordinator's shard number to the worker side,
// pairing each round trip with its serve time.
const shardHeader = "X-Perfbench-Shard"

// timedHandler times the shards a worker serves and counts their bytes.
type timedHandler struct {
	inner http.Handler
	tr    *traceRun
}

func (h timedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(r.URL.Path, "/shard") {
		h.inner.ServeHTTP(rw, r)
		return
	}
	body := &countReader{ReadCloser: r.Body}
	r.Body = body
	sw := &statusWriter{ResponseWriter: rw, status: http.StatusOK}
	t0 := time.Now()
	h.inner.ServeHTTP(sw, r)
	el := time.Since(t0)
	h.tr.mu.Lock()
	defer h.tr.mu.Unlock()
	ms := float64(el) / 1e6
	h.tr.serveMs = append(h.tr.serveMs, ms)
	h.tr.serve[r.Header.Get(shardHeader)] = ms
	h.tr.cur.serveS += el.Seconds()
	h.tr.cur.requestBytes += body.n
	h.tr.cur.replyBytes += sw.n
}

type countReader struct {
	io.ReadCloser
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

type statusWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(p []byte) (int, error) {
	n, err := s.ResponseWriter.Write(p)
	s.n += int64(n)
	return n, err
}

// timedTransport is the coordinator's HTTP transport: it numbers every
// shard request, times it until its reply body is consumed, and counts
// replies by status.
type timedTransport struct {
	base http.RoundTripper
	tr   *traceRun
	seq  atomic.Int64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/shard") {
		return t.base.RoundTrip(req)
	}
	id := strconv.FormatInt(t.seq.Add(1), 10)
	req = req.Clone(req.Context())
	req.Header.Set(shardHeader, id)
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.tr.mu.Lock()
	defer t.tr.mu.Unlock()
	switch {
	case err != nil:
		t.tr.cur.shardErrors++
		return nil, err
	case resp.StatusCode == http.StatusServiceUnavailable:
		t.tr.cur.rejected503++
	case resp.StatusCode != http.StatusOK:
		t.tr.cur.shardErrors++
	default:
		t.tr.cur.shards++
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(readErr error) {
		ms := msSince(t0)
		t.tr.mu.Lock()
		defer t.tr.mu.Unlock()
		t.tr.rttMs = append(t.tr.rttMs, ms)
		t.tr.rtt[id] = ms
		if readErr != nil {
			t.tr.cur.shardErrors++
		}
	}}
	return resp, nil
}

// timedBody reports once, when its reader reaches the end or is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func(error)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(func() { b.done(nil) })
	} else if err != nil {
		b.once.Do(func() { b.done(err) })
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(func() { b.done(nil) })
	return b.ReadCloser.Close()
}

// remoteLog counts the cells the coordinator reports requeued.
func (tr *traceRun) remoteLog(format string, a ...any) {
	if lines, n := requeues(fmt.Sprintf(format, a...)); n > 0 {
		tr.mu.Lock()
		tr.cur.requeuedCells += n
		tr.cur.problems = append(tr.cur.problems, lines...)
		tr.mu.Unlock()
	}
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (tr *traceRun) addMem(m0, m1 runtime.MemStats) {
	tr.cur.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	tr.cur.mallocs += m1.Mallocs - m0.Mallocs
	tr.cur.gcCycles += m1.NumGC - m0.NumGC
}

// runLocal is the local sweep pipeline — Plan, Fingerprint, the runner,
// Reduce — with each stage timed; id names a campaign entry ("" for a
// plain sweep).
func (tr *traceRun) runLocal(id string, g sweep.Grid, runner sweep.PlannedRunner) (*sweep.Summary, error) {
	t0 := time.Now()
	plan, err := sweep.Plan(g)
	if err != nil {
		return nil, err
	}
	fp := sweep.Fingerprint(g, plan)
	tr.cur.planMs += msSince(t0)
	tr.cur.cellsTotal += len(plan)
	if g.Record == nil {
		g.Record = tr.record
	}
	r := &timedRunner{inner: runner}
	m0 := readMem()
	results, err := r.RunPlanned(g, fp, len(plan), plan)
	tr.addMem(m0, readMem())
	if err != nil {
		return nil, err
	}
	tr.cur.execS += r.spent.Seconds()
	if id != "" {
		tr.cur.campaignExecS[id] += r.spent.Seconds()
	}
	t1 := time.Now()
	sum := sweep.Reduce(results)
	sum.Fingerprint, sum.TotalCells = fp, len(plan)
	tr.cur.reduceMs += msSince(t1)
	tr.countOutputs(sum)
	return sum, nil
}

// countOutputs adds the exact counts a summary carries.
func (tr *traceRun) countOutputs(sum *sweep.Summary) {
	c := tr.cur
	for _, cr := range sum.Cells {
		metric := func(name string) float64 { v, _ := cr.Metric(name); return v }
		c.runs += int(metric("runs"))
		c.completedRuns += int(metric("completed-runs"))
		c.probeReadings += int(metric("probe-readings"))
		c.commsFailures += int(metric("comms-failures"))
		c.mbToServer += metric("mb-to-server")
		for _, s := range cr.Series {
			if s != nil {
				c.tracePoints += s.Len()
			}
		}
	}
}

// writeOutput encodes one artifact, timing the encoder alone, and writes
// it to path.
func (tr *traceRun) writeOutput(path string, encode func(io.Writer) error) ([]byte, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := encode(&buf); err != nil {
		return nil, err
	}
	tr.cur.encodeMs += msSince(t0)
	tr.cur.encodeBytes += int64(buf.Len())
	return buf.Bytes(), os.WriteFile(path, buf.Bytes(), 0o644)
}

// writeSummary writes a sweep summary as its JSON document, as
// `glacsim -sweep -out json -o` does.
func (tr *traceRun) writeSummary(path string, sum *sweep.Summary) error {
	data, err := tr.writeOutput(path, sum.WriteJSON)
	if err == nil {
		tr.keep(sum, data)
	}
	return err
}

// writeExperiment writes one campaign entry's artifacts as
// `glacreport -campaign` does: the cells and groups tables, then the JSON.
func (tr *traceRun) writeExperiment(dir, id string, sum *sweep.Summary) error {
	if _, err := tr.writeOutput(filepath.Join(dir, id+".cells.csv"), sum.WriteCellsCSV); err != nil {
		return err
	}
	if _, err := tr.writeOutput(filepath.Join(dir, id+".groups.csv"), sum.WriteGroupsCSV); err != nil {
		return err
	}
	return tr.writeSummary(filepath.Join(dir, id+".json"), sum)
}

func (tr *traceRun) keep(sum *sweep.Summary, data []byte) {
	tr.cur.summaries = append(tr.cur.summaries, sum)
	tr.cur.summaryJSON = append(tr.cur.summaryJSON, data)
}

// ---- the workloads, traced ----

func (b *bench) fleetGrid() sweep.Grid {
	return sweep.Grid{Scenarios: []string{"fleet-N"}, Seeds: sweep.SeedRange(b.seed, fleetSeeds),
		Days: fleetDays, Stations: []int{fleetStations}}
}

func (b *bench) campaignGrids() []sweep.Grid {
	var gs []sweep.Grid
	for _, e := range campaign.Entries() {
		gs = append(gs, e.Grid(b.seed, campaignSeeds, 0))
	}
	return gs
}

func (b *bench) replayGrid() sweep.Grid {
	return sweep.Grid{Scenarios: []string{"probe-heavy"}, Seeds: sweep.SeedRange(b.seed, replaySeeds)}
}

func (b *bench) fleetTraced(tr *traceRun, out string) error {
	sum, err := tr.runLocal("", b.fleetGrid(), sweep.LocalRunner{Workers: b.workers})
	if err != nil {
		return err
	}
	return tr.writeSummary(filepath.Join(out, "summary.json"), sum)
}

func (b *bench) campaignColdTraced(tr *traceRun, out string) error {
	t0 := time.Now()
	dir := filepath.Join(b.work, "trace-cache")
	if err := freshDir(dir); err != nil {
		return err
	}
	tr.cur.excluded += time.Since(t0).Seconds()
	t1 := time.Now()
	dc, err := rescache.Open(dir, rescache.Options{})
	if err != nil {
		return err
	}
	tr.openMs = append(tr.openMs, msSince(t1))
	cache := timedCache{inner: dc, tr: tr}
	for _, e := range campaign.Entries() {
		sum, err := tr.runLocal(e.ID, e.Grid(b.seed, campaignSeeds, 0),
			sweep.LocalRunner{Workers: b.workers, Cache: cache})
		if err != nil {
			return fmt.Errorf("campaign %s: %w", e.ID, err)
		}
		if err := tr.writeExperiment(out, e.ID, sum); err != nil {
			return err
		}
	}
	return nil
}

// inprocWorker is a distrib.Worker served on a loopback port in this
// process, behind the timing handler.
type inprocWorker struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func startInprocWorker(tr *traceRun, cacheDir string) (*inprocWorker, error) {
	t0 := time.Now()
	dc, err := rescache.Open(cacheDir, rescache.Options{})
	if err != nil {
		return nil, err
	}
	tr.openMs = append(tr.openMs, msSince(t0))
	w := &distrib.Worker{MaxShards: workerMaxShards, CellWorkers: 1, Cache: timedCache{inner: dc, tr: tr}}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	iw := &inprocWorker{srv: &http.Server{Handler: timedHandler{inner: w, tr: tr}},
		addr: l.Addr().String(), done: make(chan struct{})}
	// Serve returns http.ErrServerClosed once stop closes the server.
	go func() { _ = iw.srv.Serve(l); close(iw.done) }()
	return iw, nil
}

func (w *inprocWorker) stop() {
	// Close only reports listener errors, and the listener is done with.
	_ = w.srv.Close()
	<-w.done
}

func (b *bench) campaignRemoteTraced(tr *traceRun, out string) error {
	t0 := time.Now()
	var ws []*inprocWorker
	defer func() {
		for _, w := range ws {
			w.stop()
		}
	}()
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := startInprocWorker(tr, b.warmDir)
		if err != nil {
			return err
		}
		ws = append(ws, w)
		addrs = append(addrs, w.addr)
	}
	for _, w := range ws {
		if err := waitHealthz(w.addr, 30*time.Second, w.done); err != nil {
			return err
		}
	}
	tr.cur.excluded += time.Since(t0).Seconds()

	client := &http.Client{Transport: &timedTransport{base: http.DefaultTransport, tr: tr}}
	for _, e := range campaign.Entries() {
		g := e.Grid(b.seed, campaignSeeds, 0)
		t1 := time.Now()
		plan, err := sweep.Plan(g)
		if err != nil {
			return err
		}
		// RunResumable plans and fingerprints again inside; this direct
		// call times the two stages.
		_ = sweep.Fingerprint(g, plan)
		tr.cur.planMs += msSince(t1)
		tr.cur.cellsTotal += len(plan)
		r := &timedRunner{inner: &distrib.RemoteRunner{Workers: addrs, Hooks: benchHooks(e.ID),
			HTTP: client, Logf: tr.remoteLog}}
		m0 := readMem()
		t2 := time.Now()
		// The chunk glacreport uses with two remote workers.
		sum, err := distrib.RunResumable(g, e.ID, out, r, 4, false, nil)
		el := time.Since(t2)
		tr.addMem(m0, readMem())
		if err != nil {
			return fmt.Errorf("campaign %s: %w", e.ID, err)
		}
		tr.cur.execS += r.spent.Seconds()
		tr.cur.campaignExecS[e.ID] += r.spent.Seconds()
		tr.cur.checkpointS += (el - r.spent).Seconds()
		// The reducer runs inside RunResumable and the workers; time it
		// directly on the same cells.
		t3 := time.Now()
		_ = sweep.Reduce(sum.Cells)
		tr.cur.reduceMs += msSince(t3)
		tr.countOutputs(sum)
		if err := tr.writeExperiment(out, e.ID, sum); err != nil {
			return err
		}
	}
	return distrib.RemoveParts(out)
}

// recordCell mirrors glacsim's -record-dir hook: cell i's event log goes
// to dir/cell-NNNN.evlog with the plan fingerprint in its header.
func recordCell(dir, fp string) func(sweep.Cell, *deploy.Deployment) (func() error, error) {
	return func(c sweep.Cell, d *deploy.Deployment) (func() error, error) {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("cell-%04d.evlog", c.Index)))
		if err != nil {
			return nil, err
		}
		w, err := evlog.NewWriter(f, evlog.Header{Scenario: c.Scenario, Seed: c.Seed,
			Stations: c.Stations, Probes: c.Probes, Days: c.Days, Fingerprint: fp})
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

func (b *bench) recordReplayTraced(tr *traceRun, out string) error {
	g := b.replayGrid()
	plan, err := sweep.Plan(g)
	if err != nil {
		return err
	}
	fp := sweep.Fingerprint(g, plan)

	// The reference pass: the same grid without a recorder, for the
	// recording overhead. It is not part of the iteration's time.
	t0 := time.Now()
	plain := &timedRunner{inner: sweep.LocalRunner{Workers: b.workers}}
	if _, err := plain.RunPlanned(g, fp, len(plan), plan); err != nil {
		return err
	}
	tr.cur.execPlainS += plain.spent.Seconds()
	tr.cur.excluded += time.Since(t0).Seconds()

	recDir := filepath.Join(out, "rec")
	if err := os.MkdirAll(recDir, 0o755); err != nil {
		return err
	}
	rec := recordCell(recDir, fp)
	g.Record = func(c sweep.Cell, d *deploy.Deployment) (func() error, error) {
		stamp, _ := tr.record(c, d) // the stamping hook never fails
		seal, err := rec(c, d)
		if err != nil {
			return nil, err
		}
		return func() error {
			err := seal()
			_ = stamp()
			return err
		}, nil
	}
	execBefore := tr.cur.execS
	sum, err := tr.runLocal("", g, sweep.LocalRunner{Workers: b.workers})
	if err != nil {
		return err
	}
	tr.cur.execRecS += tr.cur.execS - execBefore
	if err := tr.writeSummary(filepath.Join(out, "summary.json"), sum); err != nil {
		return err
	}

	// Read and verify every log, b.workers at a time.
	next := make(chan int, len(plan))
	for i := range plan {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				tr.replayOne(filepath.Join(out, logName(i)), logName(i))
			}
		}()
	}
	wg.Wait()
	return nil
}

// replayOne reads and verifies one event log; op names it as an
// operation.
func (tr *traceRun) replayOne(path, op string) {
	data, err := os.ReadFile(path)
	var l *evlog.Log
	var div *evlog.Divergence
	var readS, verifyS float64
	if err == nil {
		t0 := time.Now()
		l, err = evlog.Read(bytes.NewReader(data))
		readS = time.Since(t0).Seconds()
	}
	if err == nil {
		t1 := time.Now()
		div, err = evlog.Verify(l)
		verifyS = time.Since(t1).Seconds()
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	c := tr.cur
	c.readS += readS
	c.verifyS += verifyS
	c.logBytes += int64(len(data))
	if l != nil {
		c.records += uint64(len(l.Records))
	}
	switch {
	case err != nil:
		c.failedOps[op] = true
		c.problems = append(c.problems, op+": "+err.Error())
	case div != nil:
		c.divergences++
		c.failedOps[op] = true
		c.problems = append(c.problems, op+": replay diverged: "+div.Error())
	}
}

// ---- direct layer measurements ----

// kernelNsPerEvent times the simulation kernel alone: a synthetic
// schedule of no-op tickers shaped like the workload's fleet — every
// station's 5-minute energy tick and 30-minute MCU sample, every base's
// hourly probe samples — run for about two million events.
func kernelNsPerEvent(stations, probes int) float64 {
	sim := simenv.New(1)
	noop := func(time.Time) {}
	t0 := sim.Now()
	for s := 0; s < stations; s++ {
		sim.Every(t0.Add(5*time.Minute), 5*time.Minute, "energy.tick", noop)
		sim.Every(t0.Add(30*time.Minute), 30*time.Minute, "mcu.sample", noop)
		if s == 0 {
			continue // the reference station carries no probes
		}
		for p := 0; p < probes; p++ {
			sim.Every(t0.Add(time.Hour), time.Hour, "probe.sample", noop)
		}
	}
	perDay := stations*(288+48) + (stations-1)*probes*24
	days := max(1, 2_000_000/perDay)
	start := time.Now()
	if err := sim.Run(t0.Add(time.Duration(days) * 24 * time.Hour)); err != nil {
		return 0
	}
	return ratio(float64(time.Since(start)), float64(sim.Processed()))
}

// buildCost times deploy.Build on up to 40 of the workload's cells, spread
// over its plans, and measures the heap the largest cell's deployment
// holds after a collection.
func buildCost(grids []sweep.Grid) (msPerCell, heapMB float64, err error) {
	type job struct {
		g sweep.Grid
		c sweep.Cell
	}
	var jobs []job
	for _, g := range grids {
		plan, err := sweep.Plan(g)
		if err != nil {
			return 0, 0, err
		}
		for _, c := range plan {
			jobs = append(jobs, job{g, c})
		}
	}
	step := max(1, len(jobs)/40)
	topology := func(j job) (deploy.Topology, error) {
		s, ok := scenario.Lookup(j.c.Scenario)
		if !ok {
			return deploy.Topology{}, fmt.Errorf("scenario %q not registered", j.c.Scenario)
		}
		top := s.Topology(scenario.Params{Seed: j.c.Seed, Stations: j.c.Stations, Probes: j.c.Probes, Days: j.c.Days})
		for _, ov := range j.g.Overrides {
			if ov.Name == j.c.Override && ov.Apply != nil {
				ov.Apply(&top)
			}
		}
		return top, nil
	}
	var times []float64
	var largest deploy.Topology
	for i := 0; i < len(jobs); i += step {
		top, err := topology(jobs[i])
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if _, err := deploy.Build(top); err != nil {
			return 0, 0, err
		}
		times = append(times, msSince(t0))
		if len(top.Stations) > len(largest.Stations) {
			largest = top
		}
	}
	runtime.GC()
	m0 := readMem()
	d, err := deploy.Build(largest)
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	m1 := readMem()
	runtime.KeepAlive(d)
	heap := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / (1 << 20)
	return median(times), math.Max(heap, 0), nil
}

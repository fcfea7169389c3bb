package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
)

// tracedIter runs one traced iteration into a fresh directory and checks
// its outputs against the pins and, when given, the untraced outputs.
func (b *bench) tracedIter(wl *workload, tr *traceRun, ref pinned, untraced map[string]string, i int) (failed map[string]bool, problems []string, err error) {
	dir := filepath.Join(b.work, fmt.Sprintf("trace-%03d", i))
	out := filepath.Join(dir, "out")
	if err := freshDir(dir, "out"); err != nil {
		return nil, nil, err
	}
	// Best effort: the run's working directory is removed as a whole too.
	defer func() { _ = os.RemoveAll(dir) }()
	tr.begin()
	t0 := time.Now()
	if err := wl.traced(b, tr, out); err != nil {
		return nil, nil, err
	}
	tr.cur.wall = time.Since(t0).Seconds() - tr.cur.excluded
	failed, problems = wl.check(b, out, ref)
	for op := range tr.cur.failedOps {
		failed[op] = true
	}
	problems = append(problems, tr.cur.problems...)
	if untraced != nil {
		got, err := digestDir(out)
		if err != nil {
			return nil, nil, err
		}
		for _, m := range compareDigests(got, untraced) {
			problems = append(problems, "traced output differs from the untraced run's: "+m.String())
		}
	}
	tr.end()
	return failed, problems, nil
}

// tracedRun is a -trace 1 run: half the measuring time runs the untraced
// workload (for the overhead baseline and the byte-identity check), half
// the traced iterations; then the kernel and Build are measured directly.
func (b *bench) tracedRun(wl *workload, ref pinned, budget time.Duration) (*result, error) {
	keep := filepath.Join(b.work, "untraced-out")
	m, err := b.measure(wl, ref, budget/2, 1, keep)
	if err != nil {
		return nil, err
	}
	untraced, err := digestDir(keep)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: m.attempted, failed: m.failed, problems: m.problems}
	var untracedWall []float64
	for _, it := range m.iters {
		untracedWall = append(untracedWall, it.wall)
	}

	tr := newTraceRun()
	activeTrace.Store(tr)
	defer activeTrace.Store(nil)
	start := time.Now()
	var spent float64
	for i := 0; ; i++ {
		failed, problems, err := b.tracedIter(wl, tr, ref, untraced, i)
		if err != nil {
			return nil, err
		}
		c := tr.iters[len(tr.iters)-1]
		res.attempted += wl.ops(b) + c.requeuedCells
		res.failed += len(failed) + c.requeuedCells
		res.problems = append(res.problems, problems...)
		spent += c.wall
		if spent >= (budget/2).Seconds() || time.Since(start) > maxRunTime/2 {
			break
		}
	}
	res.problems = append(res.problems, tr.checkRepeats(ref)...)

	var kernel []float64
	for i := 0; i < 3; i++ {
		kernel = append(kernel, kernelNsPerEvent(wl.kernelStations, wl.kernelProbes))
	}
	buildMs, heapMB, err := buildCost(wl.grids(b))
	if err != nil {
		return nil, err
	}
	tr.report(res, b, ref, median(untracedWall), median(kernel), buildMs, heapMB)
	return res, nil
}

// checkRepeats reports counts that did not repeat exactly across the
// traced iterations, or that disagree with the pinned reference when
// every cell was simulated.
func (tr *traceRun) checkRepeats(ref pinned) []string {
	var problems []string
	first := tr.iters[0]
	for i, c := range tr.iters[1:] {
		if c.events != first.events || c.runs != first.runs || c.probeReadings != first.probeReadings ||
			c.cellsTotal != first.cellsTotal || c.cellsSimulated != first.cellsSimulated || c.records != first.records {
			problems = append(problems, fmt.Sprintf("traced iteration %d: counts differ from iteration 0", i+1))
		}
	}
	for i, c := range tr.iters {
		if c.cellsSimulated != c.cellsTotal {
			continue
		}
		if c.events != ref.Events || math.Abs(c.stationDays-ref.StationDays) > 1e-6*ref.StationDays {
			problems = append(problems, fmt.Sprintf("traced iteration %d: %d events over %.3f station-days, pinned %d over %.3f",
				i, c.events, c.stationDays, ref.Events, ref.StationDays))
		}
	}
	return problems
}

// report turns the observations into the per-layer metrics.
func (tr *traceRun) report(res *result, b *bench, ref pinned, untracedWall, kernelNs, buildMs, heapMB float64) {
	first := tr.iters[0]
	med := func(f func(c *iterTrace) float64) float64 {
		var xs []float64
		for _, c := range tr.iters {
			xs = append(xs, f(c))
		}
		return median(xs)
	}
	total := func(f func(c *iterTrace) float64) float64 {
		s := 0.0
		for _, c := range tr.iters {
			s += f(c)
		}
		return s
	}
	tail := func(name string, xs []float64, unit string) {
		d := summarize(xs)
		res.set(name+"_p50", d.P50, unit)
		res.set(name+"_tail", d.Tail, unit)
		res.set(name+"_tail_pct", d.TailPct, "percentile")
		res.set(name+"_samples", float64(d.N), "count")
	}
	execS := total(func(c *iterTrace) float64 { return c.execS })

	res.set("simenv.kernel_ns_per_event", kernelNs, "ns")
	res.set("simenv.ns_per_event", ratio(total(func(c *iterTrace) float64 { return c.cellBusyS })*1e9,
		total(func(c *iterTrace) float64 { return float64(c.events) })), "ns")
	res.set("simenv.events", float64(first.events), "count")
	res.set("simenv.events_per_station_day", ratio(float64(first.events), ref.StationDays), "1/station-day")

	res.set("runtime.alloc_mb_per_station_day", med(func(c *iterTrace) float64 {
		return ratio(float64(c.allocBytes)/(1<<20), ref.StationDays)
	}), "MB/station-day")
	res.set("runtime.mallocs_per_event", med(func(c *iterTrace) float64 {
		return ratio(float64(c.mallocs), float64(ref.Events))
	}), "1/event")
	res.set("runtime.gc_cycles", med(func(c *iterTrace) float64 { return float64(c.gcCycles) }), "count")

	res.set("deploy.build_ms_per_cell", buildMs, "ms")
	res.set("deploy.heap_mb_after_build", heapMB, "MB")

	res.set("station.runs", float64(first.runs), "count")
	res.set("station.completed_runs", float64(first.completedRuns), "count")
	res.set("probe.readings", float64(first.probeReadings), "count")
	res.set("comms.mb_to_server", first.mbToServer, "MB")
	res.set("comms.failures", float64(first.commsFailures), "count")
	res.set("trace.points", float64(first.tracePoints), "count")

	res.set("sweep.cells_total", float64(first.cellsTotal), "count")
	res.set("sweep.cells_simulated", float64(first.cellsSimulated), "count")
	res.set("sweep.plan_ms", med(func(c *iterTrace) float64 { return c.planMs }), "ms")
	res.set("sweep.execute_s", med(func(c *iterTrace) float64 { return c.execS }), "s")
	tail("sweep.cell_run_ms", tr.cellRunMs, "ms")
	res.set("sweep.pool_busy_ratio", ratio(total(func(c *iterTrace) float64 { return c.cellBusyS }),
		float64(b.workers)*execS), "ratio")
	for _, e := range campaign.Entries() {
		res.set("campaign."+e.ID+".execute_s", med(func(c *iterTrace) float64 { return c.campaignExecS[e.ID] }), "s")
	}
	res.set("sweep.reduce_ms", med(func(c *iterTrace) float64 { return c.reduceMs }), "ms")
	res.set("sweep.encode_ms", med(func(c *iterTrace) float64 { return c.encodeMs }), "ms")
	res.set("sweep.encode_mb_per_s", ratio(total(func(c *iterTrace) float64 { return float64(c.encodeBytes) })/1e6,
		total(func(c *iterTrace) float64 { return c.encodeMs })/1e3), "MB/s")
	res.set("sweep.wire_decode_mb_per_s", ratio(total(func(c *iterTrace) float64 { return float64(c.decodeBytes) })/1e6,
		total(func(c *iterTrace) float64 { return c.decodeS })), "MB/s")
	res.set("sweep.cell_codec_us_per_cell", ratio(total(func(c *iterTrace) float64 { return c.codecS })*1e6,
		total(func(c *iterTrace) float64 { return float64(c.codecCells) })), "us")

	res.set("rescache.puts", float64(first.puts), "count")
	tail("rescache.put_us", tr.putUs, "us")
	res.set("rescache.bytes_written", float64(first.bytesWritten), "bytes")
	res.set("rescache.open_ms", median(tr.openMs), "ms")
	res.set("rescache.gets", float64(first.gets), "count")
	res.set("rescache.hit_ratio", ratio(total(func(c *iterTrace) float64 { return float64(c.hits) }),
		total(func(c *iterTrace) float64 { return float64(c.gets) })), "ratio")
	tail("rescache.get_us", tr.getUs, "us")
	res.set("rescache.bytes_read", float64(first.bytesRead), "bytes")

	res.set("distrib.shards", float64(first.shards), "count")
	res.set("distrib.rejected_503", total(func(c *iterTrace) float64 { return float64(c.rejected503) }), "count")
	res.set("distrib.shard_errors", total(func(c *iterTrace) float64 { return float64(c.shardErrors) }), "count")
	tail("distrib.shard_rtt_ms", tr.rttMs, "ms")
	res.set("distrib.worker_serve_ms_p50", median(tr.serveMs), "ms")
	res.set("distrib.wire_overhead_ms_p50", median(tr.overheadMs), "ms")
	res.set("distrib.request_bytes", float64(first.requestBytes), "bytes")
	res.set("distrib.reply_bytes", float64(first.replyBytes), "bytes")
	res.set("distrib.checkpoint_s", med(func(c *iterTrace) float64 { return c.checkpointS }), "s")
	res.set("distrib.worker_busy_ratio", ratio(total(func(c *iterTrace) float64 { return c.serveS }), 2*execS), "ratio")

	res.set("evlog.records", float64(first.records), "count")
	res.set("evlog.bytes_per_record", ratio(float64(first.logBytes), float64(first.records)), "bytes")
	res.set("evlog.record_overhead_ratio", med(func(c *iterTrace) float64 { return ratio(c.execRecS, c.execPlainS) }), "ratio")
	res.set("evlog.read_mb_per_s", ratio(total(func(c *iterTrace) float64 { return float64(c.logBytes) })/1e6,
		total(func(c *iterTrace) float64 { return c.readS })), "MB/s")
	res.set("evlog.verify_ns_per_event", ratio(total(func(c *iterTrace) float64 { return c.verifyS })*1e9,
		total(func(c *iterTrace) float64 { return float64(c.records) })), "ns")
	res.set("evlog.divergences", total(func(c *iterTrace) float64 { return float64(c.divergences) }), "count")

	res.set("bench.trace_overhead_ratio", ratio(med(func(c *iterTrace) float64 { return c.wall }), untracedWall), "ratio")
	res.set("error_ratio", ratio(float64(res.failed), float64(res.attempted)), "ratio")
}

// pinAll runs every output set once per variant — untraced through the
// CLIs and traced in-process — requires the two to agree byte for byte
// and every operation to succeed, and writes the reference table.
func (b *bench) pinAll(path string) error {
	p := &pins{Note: "sha256 of every output per output set and input variant (manifest.json excluded); " +
		"station_days and events are what the outputs cover. Written by perfbench -pin."}
	sets := []struct{ set, wl, also string }{
		{"fleet-1000", "fleet-1000", ""},
		{"campaign", "campaign-cold", "campaign-warm-remote"},
		{"record-replay", "record-replay", ""},
	}
	for v := 0; v < variants; v++ {
		b.variant, b.seed = v, baseSeed(v)
		for _, s := range sets {
			wl, _ := lookupWorkload(s.wl)
			it, err := wl.iterate(b, filepath.Join(b.work, "pin-untraced"))
			if err != nil {
				return err
			}
			if len(it.problems) > 0 {
				return fmt.Errorf("%s variant %d: %v", s.wl, v, it.problems)
			}
			files, err := digestDir(it.out)
			if err != nil {
				return err
			}
			tr := newTraceRun()
			activeTrace.Store(tr)
			ref := pinned{Files: files}
			failed, problems, err := b.tracedIter(wl, tr, ref, files, 0)
			activeTrace.Store(nil)
			if err != nil {
				return err
			}
			if len(failed) > 0 || len(problems) > 0 {
				return fmt.Errorf("%s variant %d: %d failed operations: %v", s.wl, v, len(failed), problems)
			}
			ref.StationDays, ref.Events = tr.iters[0].stationDays, tr.iters[0].events
			if s.also != "" {
				other, _ := lookupWorkload(s.also)
				if err := other.prepare(b); err != nil {
					return err
				}
				it, err := other.iterate(b, filepath.Join(b.work, "pin-also"))
				if err != nil {
					return err
				}
				if failed, problems := other.check(b, it.out, ref); len(failed) > 0 || len(it.problems) > 0 {
					return fmt.Errorf("%s variant %d disagrees with %s: %v %v", s.also, v, s.wl, it.problems, problems)
				}
			}
			p.put(s.set, v, ref)
			fmt.Fprintf(os.Stderr, "pinned %s variant %d: %d files, %.1f station-days, %d events\n",
				s.set, v, len(files), ref.StationDays, ref.Events)
		}
	}
	return p.save(path)
}

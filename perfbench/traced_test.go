package main

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/distrib"
	"repro/internal/rescache"
	"repro/internal/sweep"
)

// TestTracingWrappersUnderConcurrency drives the timing wrappers from
// several goroutines at once — a four-worker local pool over the timed
// cache, then two in-process workers serving a campaign entry through the
// harness hook set — and checks that every observation is accounted for.
func TestTracingWrappersUnderConcurrency(t *testing.T) {
	tr := newTraceRun()
	activeTrace.Store(tr)
	defer activeTrace.Store(nil)
	cacheDir := t.TempDir()
	dc, err := rescache.Open(cacheDir, rescache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := timedCache{inner: dc, tr: tr}
	grid := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: sweep.SeedRange(1, 6), Days: 1}

	tr.begin()
	sum, err := tr.runLocal("", grid, sweep.LocalRunner{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	tr.end()
	c := tr.iters[0]
	if len(sum.Cells) != 6 || c.cellsTotal != 6 || c.cellsSimulated != 6 || c.puts != 6 || c.gets != 6 {
		t.Errorf("cold pass: %d cells, total %d, simulated %d, puts %d, gets %d; want 6 of each",
			len(sum.Cells), c.cellsTotal, c.cellsSimulated, c.puts, c.gets)
	}
	if len(tr.cellRunMs) != c.cellsSimulated || c.events == 0 || c.runs == 0 {
		t.Errorf("cold pass: %d cell timings for %d cells, %d events, %d runs",
			len(tr.cellRunMs), c.cellsSimulated, c.events, c.runs)
	}

	tr.begin()
	e := campaign.Entries()[len(campaign.Entries())-1]
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := startInprocWorker(tr, cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		defer w.stop()
		if err := waitHealthz(w.addr, 10*time.Second, w.done); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, w.addr)
	}
	g := e.Grid(1, 4, 1)
	runner := &timedRunner{inner: &distrib.RemoteRunner{Workers: addrs, Hooks: benchHooks(e.ID),
		HTTP: &http.Client{Transport: &timedTransport{base: http.DefaultTransport, tr: tr}}, Logf: tr.remoteLog}}
	remote, err := distrib.RunResumable(g, e.ID, t.TempDir(), runner, 2, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.end()
	c = tr.iters[1]
	if len(remote.Cells) != 4 || c.cellsSimulated != 4 {
		t.Errorf("remote pass: %d cells, %d stamped by the harness hook set, want 4", len(remote.Cells), c.cellsSimulated)
	}
	if c.shards == 0 || len(tr.rttMs) != c.shards || len(tr.serveMs) != c.shards || len(tr.overheadMs) != c.shards {
		t.Errorf("remote pass: %d shards, %d round trips, %d serves, %d paired", c.shards, len(tr.rttMs), len(tr.serveMs), len(tr.overheadMs))
	}
	if c.requestBytes == 0 || c.replyBytes == 0 || c.rejected503+c.shardErrors+c.requeuedCells != 0 {
		t.Errorf("remote pass: %d request bytes, %d reply bytes, %d 503s, %d errors, %d requeued",
			c.requestBytes, c.replyBytes, c.rejected503, c.shardErrors, c.requeuedCells)
	}
}

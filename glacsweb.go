// Package repro is a reproduction, as a Go library and simulation testbed,
// of "Field Deployment of Low Power High Performance Nodes" (Martinez,
// Basford, Ellul, Clarke — the Glacsweb project's Gumsense base stations on
// Vatnajökull, Iceland).
//
// The paper's contribution is a fault-tolerant dual-processor sensor
// gateway: an ARM Linux Gumstix for the heavy lifting, an MSP430 for
// sensing, timekeeping and power switching, plus a set of deployment
// techniques — a voltage-driven power-state machine (Table II),
// server-mediated schedule synchronisation between stations that never talk
// to each other, automatic clock/schedule recovery after total battery
// exhaustion, an ack-less bulk fetch protocol for sub-glacial probe data, a
// two-hour safety watchdog, and checksum-verified remote code update.
//
// Since the original system is inseparable from its hardware (glacier,
// batteries, GPRS modems, dGPS units), this package fronts a deterministic
// discrete-event simulation of the complete deployment; the paper's
// algorithms run unchanged on the simulated platform. See DESIGN.md for the
// full system inventory and EXPERIMENTS.md for the reproduced evaluation.
//
// Quick start — the paper's pair, by scenario name:
//
//	d, _ := repro.BuildScenario("as-deployed-2008", repro.ScenarioParams{Seed: 42})
//	_ = d.RunDays(120)
//	fmt.Print(d.Result())
//
// or any fleet, declaratively:
//
//	d, _ := repro.Build(repro.FleetTopology(42, 8, 3))
//	_ = d.RunDays(30)
//	fmt.Print(d.Result())
package repro

import (
	"io"
	"net"
	"time"

	"repro/internal/comms"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/distrib"
	"repro/internal/energy"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/protocol"
	"repro/internal/rescache"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/simenv"
	"repro/internal/station"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/update"
	"repro/internal/weather"
)

// Re-exported deployment types: a Topology declares a fleet of
// StationSpecs, Build wires it into a running Deployment on one simulator,
// and Result rolls the fleet up per station and in total. The paper's
// Fig 3 architecture is just the two-entry AsDeployedTopology.
type (
	// Deployment is a fully wired simulated field system of any size.
	Deployment = deploy.Deployment
	// Topology declares a fleet: stations, climate, faults.
	Topology = deploy.Topology
	// StationSpec declares one station of a Topology.
	StationSpec = deploy.StationSpec
	// Fault is one injected deployment fault.
	Fault = deploy.Fault
	// FaultKind enumerates injectable faults.
	FaultKind = deploy.FaultKind
	// Result is a deterministic per-station + fleet roll-up.
	Result = deploy.Result
	// StationResult is one station's roll-up inside a Result.
	StationResult = deploy.StationResult
	// FleetTotals aggregates a Result across the fleet.
	FleetTotals = deploy.FleetTotals
	// Scenario is a named, registered deployment shape.
	Scenario = scenario.Scenario
	// ScenarioParams parameterises a scenario build.
	ScenarioParams = scenario.Params
	// Station is one station runtime (base or reference).
	Station = station.Station
	// StationConfig parameterises a station runtime.
	StationConfig = station.Config
	// RunReport summarises one daily station run.
	RunReport = station.RunReport
	// Node is the Gumsense hardware platform.
	Node = core.Node
	// NodeConfig parameterises a Node.
	NodeConfig = core.NodeConfig
	// Server is the Southampton coordination server.
	Server = server.Server
	// PowerState is a Table II power state (0-3).
	PowerState = power.State
	// Probe is a sub-glacial sensor node.
	Probe = probe.Probe
	// Reading is one probe measurement.
	Reading = probe.Reading
	// Simulator is the discrete-event kernel.
	Simulator = simenv.Simulator
	// WeatherModel is the synthetic Vatnajökull climate.
	WeatherModel = weather.Model
	// Series is a recorded time series (figures, traces).
	Series = trace.Series
	// TracePoint is one sample of a Series.
	TracePoint = trace.Point
	// Artifact is a remotely updatable program.
	Artifact = update.Artifact
	// FetchResult describes one probe bulk-fetch session.
	FetchResult = protocol.Result
)

// Table II power states.
const (
	PowerState0 = power.State0
	PowerState1 = power.State1
	PowerState2 = power.State2
	PowerState3 = power.State3
)

// Station roles.
const (
	RoleBase      = station.RoleBase
	RoleReference = station.RoleReference
)

// Injectable fault kinds.
const (
	FaultRS232         = deploy.FaultRS232
	FaultBatterySoC    = deploy.FaultBatterySoC
	FaultStuckLoad     = deploy.FaultStuckLoad
	FaultMainsBlackout = deploy.FaultMainsBlackout
)

// Build wires a fleet from a declarative topology.
func Build(t Topology) (*Deployment, error) { return deploy.Build(t) }

// MustBuild is Build for topologies known to be valid; it panics on error.
func MustBuild(t Topology) *Deployment { return deploy.MustBuild(t) }

// BaseSpec returns a base-station spec with a probe cohort.
func BaseSpec(name string, numProbes int) StationSpec { return deploy.BaseSpec(name, numProbes) }

// ReferenceSpec returns a reference-station spec.
func ReferenceSpec(name string) StationSpec { return deploy.ReferenceSpec(name) }

// AsDeployedTopology is the paper's Fig 3 pair: one base with the
// seven-probe cohort, one reference station.
func AsDeployedTopology(seed int64) Topology { return deploy.AsDeployed(seed) }

// FleetTopology is an n-station fleet: one reference plus n-1 bases, each
// with its own probe cohort and radio cell.
func FleetTopology(seed int64, n, probesPerBase int) Topology {
	return deploy.FleetTopology(seed, n, probesPerBase)
}

// LookupScenario returns the named scenario.
func LookupScenario(name string) (Scenario, bool) { return scenario.Lookup(name) }

// ListScenarios returns every registered scenario sorted by name.
func ListScenarios() []Scenario { return scenario.List() }

// BuildScenario looks a scenario up by name and wires its deployment.
func BuildScenario(name string, p ScenarioParams) (*Deployment, error) {
	return scenario.Build(name, p)
}

// The parallel sweep engine, a Plan / Execute / Reduce pipeline: a
// SweepGrid declares scenario x seed x override axes (plus fleet-size,
// cohort-size, weather-config and probe-lifetime axes), PlanSweep
// enumerates the cross-product into ordered cells, a SweepRunner executes
// them (RunSweep wires the in-process LocalRunner; one independent
// Deployment per cell), and the SweepSummary folds each configuration's
// metrics across its seeds. A grid's Collect hook captures named per-cell
// Series (battery curves, spool depth) alongside the scalar metrics, and
// the summary exports as text (String), CSV (WriteCSV — cells + group
// folds as two flat tables) or JSON (WriteJSON — the full structure
// including every collected series point). Output is byte-identical for
// any worker count in every encoding.
//
// Sweeps also distribute: RunSweepShard executes one strided shard of the
// plan into a partial summary, WriteJSON / ReadSweepSummary carry partials
// between processes, and MergeSummaries folds them back — validating grid
// fingerprints, overlap and coverage — into output byte-identical to a
// single-process run.
type (
	// SweepGrid declares a sweep's axes and per-cell hooks.
	SweepGrid = sweep.Grid
	// SweepOverride is one named topology mutation on the override axis.
	SweepOverride = sweep.Override
	// SweepWeather is one named climate on the weather axis.
	SweepWeather = sweep.WeatherSpec
	// SweepCell identifies one point of the grid cross-product.
	SweepCell = sweep.Cell
	// SweepCellResult is one executed cell with its metrics.
	SweepCellResult = sweep.CellResult
	// SweepMetric is one named per-cell measurement.
	SweepMetric = sweep.Metric
	// SweepStats is one metric folded across a configuration's seeds.
	SweepStats = sweep.Stats
	// SweepGroup is one configuration's fold across its seeds.
	SweepGroup = sweep.Group
	// SweepSummary is a reduced sweep — full, or one shard's partial.
	SweepSummary = sweep.Summary
	// SweepRunner executes planned sweep cells.
	SweepRunner = sweep.Runner
	// SweepLocalRunner is the in-process bounded worker pool.
	SweepLocalRunner = sweep.LocalRunner
)

// The persistent result cache (internal/rescache): cell results are pure
// functions of (plan fingerprint, cell index), so a SweepLocalRunner with
// its Cache field set serves already-simulated cells from disk and a
// re-run of an identical grid simulates nothing — with every entry
// verified on read (content digest, cell identity, format version), so a
// hit is byte-identical to a fresh simulation or it is re-simulated.
type (
	// SweepCache is the pluggable result-cache interface a
	// SweepLocalRunner consults — the disk store below, or a remote
	// (memcache/S3-shaped) backend honouring the same contract.
	SweepCache = sweep.ResultCache
	// SweepDiskCache is the on-disk content-addressed result cache.
	SweepDiskCache = rescache.DiskCache
	// SweepCacheOptions configures OpenResultCache (size bound, logging).
	SweepCacheOptions = rescache.Options
	// SweepCacheStats is a cache's hit/miss/store/evict counter snapshot.
	SweepCacheStats = rescache.Stats
)

// OpenResultCache opens (creating if needed) the on-disk result cache
// rooted at dir. Plug it into a SweepLocalRunner's Cache field, or a
// SweepWorker's, and re-runs of identical grids stop simulating:
//
//	cache, _ := repro.OpenResultCache("/var/cache/glacsweb", repro.SweepCacheOptions{})
//	sum, _ := repro.RunSweepOn(g, repro.SweepLocalRunner{Cache: cache})
func OpenResultCache(dir string, opts SweepCacheOptions) (*SweepDiskCache, error) {
	return rescache.Open(dir, opts)
}

// RunSweep executes the grid on a bounded worker pool (workers <= 0 means
// GOMAXPROCS).
func RunSweep(g SweepGrid, workers int) (*SweepSummary, error) {
	return sweep.Run(g, workers)
}

// PlanSweep enumerates the grid's cross-product into the ordered cell
// list a SweepRunner executes.
func PlanSweep(g SweepGrid) ([]SweepCell, error) { return sweep.Plan(g) }

// RunSweepShard executes only shard i of m of the grid (cells with global
// index ≡ i mod m) into a partial summary carrying the full plan's
// fingerprint, ready for MergeSummaries.
func RunSweepShard(g SweepGrid, i, m, workers int) (*SweepSummary, error) {
	return sweep.RunShardWith(g, sweep.LocalRunner{Workers: workers}, i, m)
}

// MergeSummaries folds partial summaries from any number of shards into
// the full-grid summary, byte-identical to a single-process run; it
// validates grid fingerprints and rejects overlapping or missing cells.
func MergeSummaries(parts ...*SweepSummary) (*SweepSummary, error) {
	return sweep.MergeSummaries(parts...)
}

// ReadSweepSummary decodes a summary (full or partial) from its WriteJSON
// document — the shard wire format.
func ReadSweepSummary(r io.Reader) (*SweepSummary, error) { return sweep.ReadSummary(r) }

// Sweeps also distribute over the network (internal/distrib): a worker
// daemon serves the Execute stage over HTTP (glacsim -worker), and a
// SweepRemoteRunner — a SweepRunner like any other — fans planned cells
// out across a worker pool, verifying returned plan fingerprints and
// retrying/requeueing shards from dead or erroring workers. Plan and
// Reduce stay in the coordinating process, so the summary is byte-identical
// to a local run in every encoding.
type (
	// SweepRemoteRunner executes sweep cells on a pool of worker daemons
	// with retry/requeue; set Workers to their addresses.
	SweepRemoteRunner = distrib.RemoteRunner
	// SweepWorker is the worker daemon's HTTP handler (POST /shard,
	// GET /healthz, bounded concurrent shards).
	SweepWorker = distrib.Worker
)

// ServeSweepWorker serves a sweep worker daemon on l until the listener
// closes (maxShards <= 0 bounds concurrent shards at 2). The glacsim
// -worker command is this function behind a flag.
func ServeSweepWorker(l net.Listener, maxShards int) error {
	return distrib.Serve(l, &distrib.Worker{MaxShards: maxShards})
}

// RunSweepOn executes the whole grid through an arbitrary SweepRunner —
// pass a SweepLocalRunner for in-process execution or a SweepRemoteRunner
// to distribute — and reduces it into the full summary.
func RunSweepOn(g SweepGrid, r SweepRunner) (*SweepSummary, error) {
	return sweep.RunShardWith(g, r, 0, 1)
}

// SeedRange returns n consecutive seeds starting at from — the usual seed
// axis of a SweepGrid.
func SeedRange(from int64, n int) []int64 { return sweep.SeedRange(from, n) }

// NewSimulator returns a standalone simulator starting at the given time,
// for building custom scenarios out of the exported hardware pieces.
func NewSimulator(seed int64, start time.Time) *Simulator {
	return simenv.NewAt(seed, start)
}

// NewWeather returns the synthetic Iceland climate for a seed.
func NewWeather(seed int64) *WeatherModel {
	return weather.New(weather.DefaultConfig(seed))
}

// NewNode assembles a Gumsense node on a simulator. Use BaseNodeConfig or
// ReferenceNodeConfig for the deployed hardware fits.
func NewNode(sim *Simulator, wx *WeatherModel, cfg NodeConfig) *Node {
	return core.NewNode(sim, wx, cfg)
}

// BaseNodeConfig is the base-station hardware fit (10 W solar, 50 W wind).
func BaseNodeConfig(name string) NodeConfig { return core.BaseStationConfig(name) }

// ReferenceNodeConfig is the reference-station fit (solar + seasonal mains).
func ReferenceNodeConfig(name string) NodeConfig { return core.ReferenceStationConfig(name) }

// NewServer returns an empty Southampton server.
func NewServer() *Server { return server.New() }

// StateForVoltage maps a daily-average battery voltage to a Table II state.
func StateForVoltage(avgVolts float64) PowerState { return power.StateForVoltage(avgVolts) }

// ApplyOverride combines a local state with a server override under the
// §III safety clamps.
func ApplyOverride(local, override PowerState) PowerState {
	return power.ApplyOverride(local, override)
}

// SampleSeries attaches a periodic sampler to a simulator (figures). A
// baseline sample is recorded at attach time.
func SampleSeries(sim *Simulator, interval time.Duration, name, unit string,
	fn func(now time.Time) float64) (*Series, *simenv.Ticker) {
	return trace.Sample(sim, interval, name, unit, fn)
}

// ASCIIChart renders series as a terminal chart.
func ASCIIChart(width, height int, series ...*Series) string {
	return trace.ASCIIChart(width, height, series...)
}

// Protocol layer: the paper's ack-less probe fetcher and the stop-and-wait
// baseline it replaced.
type (
	// ProbeChannel is the lossy sub-glacial radio medium.
	ProbeChannel = comms.ProbeChannel
	// ProbeConfig parameterises a probe.
	ProbeConfig = probe.Config
	// NackFetcher is the paper's ack-less bulk fetcher.
	NackFetcher = protocol.NackFetcher
	// AckFetcher is the acknowledged baseline.
	AckFetcher = protocol.AckFetcher
	// FetchState is the base station's cross-session received-set.
	FetchState = protocol.State
	// Installer manages checksum-verified remote updates on a station.
	Installer = update.Installer
	// Manifest is the expected identity of an update artifact.
	Manifest = update.Manifest
	// Battery is a lead-acid bank with the Fig 5 voltage model.
	Battery = energy.Battery
)

// NewProbeChannel returns the probe radio medium (wx may be nil for a
// permanent dry-winter channel).
func NewProbeChannel(sim *Simulator, wx *WeatherModel) *ProbeChannel {
	return comms.NewProbeChannel(sim, wx, comms.ProbeRadioConfig{})
}

// DefaultProbeConfig returns per-probe parameters for an ID (the paper's
// probes are numbered 21, 24, 25, ...).
func DefaultProbeConfig(id int) ProbeConfig { return probe.DefaultConfig(id) }

// NewProbe constructs a sub-glacial probe and starts its sampling schedule.
func NewProbe(sim *Simulator, wx *WeatherModel, cfg ProbeConfig) *Probe {
	return probe.New(sim, wx, cfg)
}

// NewNackFetcher returns the paper's fetcher in its as-deployed
// configuration, including the untested 256-NACK limit that failed in the
// field; NewFixedNackFetcher returns the post-fix configuration.
func NewNackFetcher() *NackFetcher { return protocol.NewNackFetcher(protocol.DefaultNackConfig()) }

// NewFixedNackFetcher returns the fetcher with the NACK limit removed.
func NewFixedNackFetcher() *NackFetcher { return protocol.NewNackFetcher(protocol.FixedNackConfig()) }

// NewAckFetcher returns the stop-and-wait baseline.
func NewAckFetcher() *AckFetcher { return protocol.NewAckFetcher(protocol.DefaultAckConfig()) }

// NewFetchState returns an empty cross-session fetch state.
func NewFetchState() *FetchState { return protocol.NewState() }

// NewInstaller returns an empty update installer.
func NewInstaller() *Installer { return update.NewInstaller() }

// ManifestFor builds the manifest of a verified artifact.
func ManifestFor(a Artifact) Manifest { return update.ManifestFor(a) }

// CorruptInTransit damages an artifact copy for failure-injection demos.
func CorruptInTransit(a Artifact, fraction float64, pick func(i int) float64) Artifact {
	return update.CorruptInTransit(a, fraction, pick)
}

// HashNoise is the deterministic uniform noise used throughout the
// simulation; exposed for writing reproducible custom scenarios.
func HashNoise(seed int64, tag string, k uint64) float64 {
	return simenv.HashNoise(seed, tag, k)
}

// Table I device characteristics (transfer rate bps, power W).
const (
	GPRSRateBps   = comms.GPRSRateBps
	GPRSPowerW    = comms.GPRSPowerW
	RadioRateBps  = comms.RadioRateBps
	RadioPowerW   = comms.RadioPowerW
	GumstixPowerW = 0.9
	GPSPowerW     = 3.6
)

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
// batteries, GPRS modems, dGPS units), this module is a deterministic
// discrete-event simulation of the complete deployment; the paper's
// algorithms run unchanged on the simulated platform. See DESIGN.md for the
// full system inventory and EXPERIMENTS.md for the reproduced evaluation.
//
// This package holds no code. The simulator lives in one package per
// subsystem under internal/, the commands under cmd/ (glacsim runs
// deployments and sweeps, glacreport regenerates the paper's tables and
// figures), and each program under examples/ calls the packages it
// demonstrates.
//
// Quick start — the paper's pair, by scenario name (internal/scenario):
//
//	d, _ := scenario.Build("as-deployed-2008", scenario.Params{Seed: 42})
//	_ = d.RunDays(120)
//	fmt.Print(d.Result())
//
// or any fleet, declaratively (internal/deploy):
//
//	d, _ := deploy.Build(deploy.FleetTopology(42, 8, 3))
//	_ = d.RunDays(30)
//	fmt.Print(d.Result())
package repro

// Remote update: the §VI checksum-verified code deployment mechanism.
//
// Code changes reach an inaccessible station over GPRS. The station
// downloads, computes an MD5, installs only on a match, and beacons the
// computed sum back over HTTP GET so researchers know *immediately* —
// instead of waiting the 24-48 h log round-trip — whether the transfer was
// clean. This example pushes an update through a corrupting link until it
// lands.
package main

import (
	"fmt"
	"time"

	"repro/internal/server"
	"repro/internal/simenv"
	"repro/internal/update"
)

func main() {
	srv := server.New()
	installer := update.NewInstaller()
	now := time.Date(2009, 10, 1, 12, 0, 0, 0, time.UTC)

	// v1 is on the station already.
	v1 := update.Artifact{Name: "probe-fetcher.py", Version: "v1", Payload: []byte("old fetch logic")}
	if err := installer.Install(v1, update.ManifestFor(v1), now, nil); err != nil {
		panic(err)
	}

	// Southampton verifies v2 on lab hardware and publishes its manifest.
	v2 := update.Artifact{Name: "probe-fetcher.py", Version: "v2",
		Payload: []byte("new fetch logic without the 256-NACK limit")}
	manifest := update.ManifestFor(v2)
	fmt.Printf("manifest for %s: md5 %s\n\n", manifest.Name, manifest.MD5)

	beacon := func(artifact, sum string) {
		srv.ReportMD5("base", artifact, sum, now)
	}

	// Day 1: the GPRS transfer corrupts a few bytes.
	fmt.Println("day 1: transfer corrupted in transit")
	damaged := update.CorruptInTransit(v2, 0.15, func(i int) float64 {
		return simenv.HashNoise(1, "corrupt", uint64(i))
	})
	if err := installer.Install(damaged, manifest, now, beacon); err != nil {
		fmt.Println("  install:", err)
	}
	cur, _ := installer.Installed("probe-fetcher.py")
	fmt.Printf("  still running: %s (old code kept — no half-installed binaries in the field)\n\n", cur.Version)

	// Day 2: clean re-download.
	now = now.Add(24 * time.Hour)
	fmt.Println("day 2: clean transfer")
	if err := installer.Install(v2, manifest, now, beacon); err != nil {
		panic(err)
	}
	cur, _ = installer.Installed("probe-fetcher.py")
	fmt.Printf("  now running: %s\n\n", cur.Version)

	fmt.Println("MD5 beacons as Southampton saw them (instant, no log delay):")
	for _, rep := range srv.MD5Reports() {
		verdict := "MISMATCH -> resend"
		if rep.Sum == manifest.MD5 {
			verdict = "match -> installed"
		}
		fmt.Printf("  %s %s %s  [%s]\n", rep.At.Format("2006-01-02"), rep.Artifact, rep.Sum, verdict)
	}

	fmt.Println("\ninstall history on the station:")
	for _, ev := range installer.History() {
		fmt.Printf("  %s ok=%v version=%q\n", ev.At.Format("2006-01-02"), ev.OK, ev.Version)
	}
}

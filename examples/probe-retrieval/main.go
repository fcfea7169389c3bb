// Probe retrieval: the §V bulk-fetch story.
//
// A probe sits under 70 m of ice accumulating hourly readings while the
// base station is down for four months (deep snow damage). When contact
// resumes in mid-summer — the season when melt water makes the radio link
// worst — ~3000 readings must come up through a channel losing ~13% of
// packets. This example reproduces the field failure (the untested
// 256-NACK limit aborting the session) and the multi-day convergence that
// saved the data, then compares the post-fix config and the stop-and-wait
// baseline.
package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/comms"
	"repro/internal/probe"
	"repro/internal/protocol"
	"repro/internal/simenv"
	"repro/internal/weather"
)

func buildScenario(seed int64) (*simenv.Simulator, *comms.ProbeChannel, *probe.Probe) {
	sim := simenv.NewAt(seed, time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC))
	wx := weather.New(weather.DefaultConfig(seed))
	cfg := probe.DefaultConfig(21)
	cfg.MeanLifetime = 50 * 365 * 24 * time.Hour
	pr := probe.New(sim, wx, cfg)
	// Four months offline: ~3000 hourly readings accumulate.
	if err := sim.RunFor(125 * 24 * time.Hour); err != nil {
		panic(err)
	}
	return sim, comms.NewProbeChannel(sim, wx, comms.ProbeRadioConfig{}), pr
}

func main() {
	fmt.Println("== as deployed: ack-less fetch with the untested NACK limit ==")
	sim, ch, pr := buildScenario(7)
	fmt.Printf("probe 21 pending: %d readings; summer loss rate %.1f%%\n",
		pr.PendingCount(), ch.LossRate(sim.Now())*100)

	st := protocol.NewState()
	fetcher := protocol.NewNackFetcher(protocol.DefaultNackConfig())
	day := 1
	for ; day <= 10; day++ {
		res := fetcher.Fetch(sim.Now(), ch, pr, 2*time.Hour, st)
		fmt.Printf("  day %d: got %4d readings, %3d missed first pass, %3d nacks",
			day, len(res.Got), res.MissedFirstPass, res.Nacked)
		if errors.Is(res.Err, protocol.ErrNackOverflow) {
			fmt.Print("  << session aborted (the field bug)")
		}
		fmt.Println()
		if res.Complete {
			fmt.Printf("  complete on day %d — task marked done on the probe\n", day)
			break
		}
		if err := sim.RunFor(24 * time.Hour); err != nil {
			panic(err)
		}
	}

	fmt.Println("\n== post-fix config: limit removed, single session ==")
	sim2, ch2, pr2 := buildScenario(7)
	res := protocol.NewNackFetcher(protocol.FixedNackConfig()).Fetch(sim2.Now(), ch2, pr2, 6*time.Hour, nil)
	fmt.Printf("  one session: %d readings, %d nacks, %.1f min on air, complete=%v\n",
		len(res.Got), res.Nacked, res.Elapsed.Minutes(), res.Complete)

	fmt.Println("\n== baseline: stop-and-wait with per-reading ACKs ==")
	sim3, ch3, pr3 := buildScenario(7)
	ack := protocol.NewAckFetcher(protocol.DefaultAckConfig()).Fetch(sim3.Now(), ch3, pr3, 6*time.Hour, nil)
	fmt.Printf("  one session: %d readings, %.1f min on air, %.2f MB airtime, complete=%v\n",
		len(ack.Got), ack.Elapsed.Minutes(), float64(ack.AirBytes)/(1<<20), ack.Complete)
	if res.Elapsed > 0 {
		fmt.Printf("\nack-less is %.2fx faster and moves %.2fx fewer bytes on this channel\n",
			float64(ack.Elapsed)/float64(res.Elapsed),
			float64(ack.AirBytes)/float64(res.AirBytes))
	}
}

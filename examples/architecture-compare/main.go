// Architecture comparison: the §II design decision.
//
// Norway relayed the base station's data over a 466 MHz radio-modem PPP
// link to the café, which forwarded everything upstream. Iceland gave each
// station its own GPRS modem instead. This example moves one day of data
// (a state-3 day: twelve ~165 KB dGPS files plus probe readings per
// station) through both architectures and compares wall time, energy and
// failure exposure — Table I's characteristics made operational.
package main

import (
	"fmt"
	"time"

	"repro/internal/comms"
	"repro/internal/simenv"
)

// One state-3 day per station: 12 dGPS files + probe/housekeeping/logs.
const dayBytes = 12*165*1024 + 80*1024

func main() {
	sim := simenv.NewAt(1, time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC))
	radio := comms.NewRadioModem(sim, nil, "base-radio", comms.DefaultRadioModemConfig())

	gprsTransfer := func(n int64) time.Duration {
		secs := float64(n) * 8 * 1.12 / comms.GPRSRateBps
		return time.Duration(secs * float64(time.Second))
	}

	fmt.Println("== one day of station data through each architecture ==")
	fmt.Printf("payload per station: %.2f MB\n\n", float64(dayBytes)/(1<<20))

	// --- Norway-style relay ---
	radioT := radio.TransferTime(dayBytes)
	relayGPRST := gprsTransfer(2 * dayBytes)
	// Both radio modems are powered for the hop; then the café GPRS sends
	// everything.
	relayEnergy := comms.RadioPowerW*2*radioT.Hours() + comms.GPRSPowerW*relayGPRST.Hours()
	fmt.Println("radio-modem relay (Norway design):")
	fmt.Printf("  base->cafe hop: %.1f min at %d bps, both modems on (%.2f W each)\n",
		radioT.Minutes(), int(comms.RadioRateBps), comms.RadioPowerW)
	fmt.Printf("  cafe->world:    %.1f min of GPRS for both stations' data\n", relayGPRST.Minutes())
	fmt.Printf("  system energy:  %.1f Wh/day\n", relayEnergy)
	fmt.Printf("  failure mode:   reference station dies -> base is unreachable too\n\n")

	// --- Iceland dual-GPRS ---
	gprsT := gprsTransfer(dayBytes)
	dualEnergy := 2 * comms.GPRSPowerW * gprsT.Hours()
	fmt.Println("independent dual GPRS (Iceland design):")
	fmt.Printf("  each station:   %.1f min of GPRS (%.2f W)\n", gprsT.Minutes(), comms.GPRSPowerW)
	fmt.Printf("  system energy:  %.1f Wh/day\n", dualEnergy)
	fmt.Printf("  failure mode:   stations fail independently\n\n")

	fmt.Printf("energy saving: %.1fx (paper: \"a twofold power saving can be made\")\n",
		relayEnergy/dualEnergy)
	fmt.Printf("data-volume cost change: none — the same bytes cross GPRS either way\n\n")

	// And the reliability argument: dial the radio link at the daily window
	// for a simulated month and count failures.
	fails := 0
	ts := sim.Now()
	for day := 0; day < 30; day++ {
		if _, err := radio.Dial(ts.Add(time.Duration(day) * 24 * time.Hour)); err != nil {
			fails++
		}
	}
	fmt.Printf("radio-modem PPP dial failures at the midday window: %d/30 days\n", fails)
	fmt.Println("(lab testing was worse — interference peaks in the working day;")
	fmt.Println(" the paper abandoned the link before deployment)")
}

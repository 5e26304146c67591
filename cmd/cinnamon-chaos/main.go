// Command cinnamon-chaos is the chaos harness: it boots the scale-out
// serving stack in one process — in-process cluster workers behind
// chaos-wrapped transports, the serving core, and a control core with no
// backends — drives verified encrypted load through one of two scenarios,
// and judges the run against the failure model (chaos.Report.Violations):
//
//  1. No wrong result: every response is byte-equal to the control core's
//     response to the same input.
//  2. Every fault resolves typed — retried transparently, degraded-and-
//     counted, or shed with a retryable error; never an untyped failure,
//     never a panic.
//  3. After faults stop, every cluster is fully healthy within one
//     heartbeat interval (plus RPC drain and dial slack), and verified
//     traffic flows.
//
// -mode soak (the default) injects the seeded per-frame fault schedule
// into one 3-worker cluster for -duration, and also asserts coverage: at
// least -min-faults faults, all six kinds under -profile all, and every
// bit flip caught by the frame CRC. The schedule is a pure function of
// -seed, so a failing run replays exactly:
//
//	cinnamon-chaos -seed 1 -duration 20s
//	cinnamon-chaos -seed 1 -duration 5s -profile corrupt   # bit-flips only
//
// -mode domains puts two 3-worker clusters behind one durable core that
// requires the cluster, kills the primary cluster whole under load for
// -duration (traffic must fail over within budget), revives it, kills the
// other for -duration (fail back), then restarts the core mid-session and
// asserts the session resumes byte-equal to an uninterrupted run:
//
//	cinnamon-chaos -mode domains -duration 3s
//
// Exit status is 0 only if every invariant held, 1 on a violation or a
// harness failure, 2 on a usage error. Standard output is the JSON report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"cinnamon/internal/chaos"
)

func main() {
	seed := flag.Int64("seed", 1, "fault schedule seed (same seed replays the same run)")
	duration := flag.Duration("duration", 20*time.Second, "length of each load phase")
	profile := flag.String("profile", "all", "fault profile (-mode soak): all | corrupt (bit-flips only)")
	minFaults := flag.Int64("min-faults", 100, "minimum injected faults for a passing run (-mode soak)")
	jsonOnly := flag.Bool("json", false, "suppress progress lines, print only the JSON report")
	mode := flag.String("mode", "soak", "soak (frame-level faults) | domains (whole-cluster kills + core restart)")
	flag.Parse()

	cfg := chaos.SoakConfig{Scenario: chaos.Scenario(*mode), Seed: *seed, Duration: *duration}
	if cfg.Scenario != chaos.FrameFaults && cfg.Scenario != chaos.ClusterKills {
		fmt.Fprintf(os.Stderr, "error: unknown -mode %q (want soak or domains)\n", *mode)
		os.Exit(2)
	}
	if !*jsonOnly {
		cfg.Logf = log.New(os.Stderr, "chaos: ", log.Ltime).Printf
	}
	allKinds := false
	switch *profile {
	case "all":
		allKinds = true
	case "corrupt":
		cfg.Rates = chaos.Rates{BitFlip: 0.15}
	default:
		fmt.Fprintf(os.Stderr, "error: unknown -profile %q (want all or corrupt)\n", *profile)
		os.Exit(2)
	}

	rep, err := chaos.RunSoak(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	out, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(out))
	violations := rep.Violations(*minFaults, allKinds)
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "FAIL:", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "PASS: %s: %d/%d requests ok, 0 wrong results, %d faults injected, recovered in %v\n",
		rep.Scenario, rep.OK, rep.Requests, rep.TotalFaults, rep.RecoveryTime.Round(time.Millisecond))
}

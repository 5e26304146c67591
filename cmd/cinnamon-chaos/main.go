// Command cinnamon-chaos is the chaos soak: it boots the full scale-out
// serving stack in one process — three cluster workers, chaos-wrapped
// transports, the serving core — drives verified encrypted load through a
// deterministic fault schedule, and asserts the failure-model invariants:
//
//  1. No response ever decrypts wrong (bit flips are caught by the frame
//     CRC, never served).
//  2. Every injected fault resolves typed: retried transparently,
//     degraded-and-counted, or shed with a retryable error — never an
//     untyped failure, never a panic.
//  3. After faults stop, the cluster returns to fully healthy within one
//     heartbeat interval (plus RPC drain), and verified traffic flows.
//
// The schedule is a pure function of -seed, so a failing run replays
// exactly:
//
//	cinnamon-chaos -seed 1 -duration 20s
//	cinnamon-chaos -seed 1 -duration 5s -profile corrupt   # bit-flips only
//
// -mode domains switches to the failure-domain soak: two independent
// worker clusters behind one durable serving core, kill the primary
// cluster whole under load (traffic must fail over within budget, zero
// wrong decrypts), fail back, then restart the coordinator mid-session
// and assert the session resumes bit-identically from its checkpoint log:
//
//	cinnamon-chaos -mode domains -clusters 2 -phase-load 3s
//
// Exit status is 0 only if every invariant held and (in soak mode) at
// least -min-faults faults were injected; the final line of output is a
// JSON report.
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
	duration := flag.Duration("duration", 20*time.Second, "chaos-phase duration")
	workers := flag.Int("workers", 3, "in-process cluster workers (per cluster in -mode domains)")
	concurrency := flag.Int("concurrency", 3, "closed-loop load clients")
	profile := flag.String("profile", "all", "fault profile: all | corrupt (bit-flips only)")
	heartbeat := flag.Duration("heartbeat", 250*time.Millisecond, "engine heartbeat interval")
	minFaults := flag.Int64("min-faults", 100, "minimum injected faults for a passing run")
	jsonOnly := flag.Bool("json", false, "suppress progress lines, print only the JSON report")
	mode := flag.String("mode", "soak", "soak (frame-level faults) | domains (whole-cluster kills + coordinator restart)")
	clusters := flag.Int("clusters", 2, "independent worker clusters (-mode domains)")
	phaseLoad := flag.Duration("phase-load", 3*time.Second, "verified load per kill phase (-mode domains)")
	flag.Parse()

	logf := func(string, ...any) {}
	if !*jsonOnly {
		logf = log.New(os.Stderr, "chaos: ", log.Ltime).Printf
	}

	switch *mode {
	case "soak":
	case "domains":
		runDomains(chaos.DomainConfig{
			Seed:      *seed,
			Clusters:  *clusters,
			Workers:   *workers,
			PhaseLoad: *phaseLoad,
			Heartbeat: *heartbeat,
			Logf:      logf,
		})
		return
	default:
		fmt.Fprintf(os.Stderr, "error: unknown -mode %q (want soak or domains)\n", *mode)
		os.Exit(2)
	}

	cfg := chaos.SoakConfig{
		Seed:        *seed,
		Duration:    *duration,
		Workers:     *workers,
		Concurrency: *concurrency,
		Heartbeat:   *heartbeat,
		Logf:        logf,
	}

	allKinds := false
	switch *profile {
	case "all":
		cfg.Rates = chaos.DefaultRates()
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
	fmt.Fprintf(os.Stderr, "PASS: %d faults injected, %d/%d requests ok, 0 wrong results, recovered in %v\n",
		rep.TotalFaults, rep.OK, rep.Requests, rep.RecoveryTime.Round(time.Millisecond))
}

func runDomains(cfg chaos.DomainConfig) {
	rep, err := chaos.RunDomainSoak(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	out, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(out))
	violations := rep.Violations()
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "FAIL:", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "PASS: %d/%d requests ok, 0 wrong results, failover %v (budget %v), session resumed bit-exact across restart\n",
		rep.OK, rep.Requests, rep.FailoverTime.Round(time.Millisecond), rep.FailoverBudget)
}

package chaos

import (
	"strings"
	"testing"
	"time"
)

// TestChaosSoak runs a compressed FrameFaults soak: elevated fault rates so
// a few seconds cover most fault kinds. The long-form run lives in
// cmd/cinnamon-chaos; this is the regression gate.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	rep, err := RunSoak(SoakConfig{
		Scenario: FrameFaults,
		Seed:     1,
		Duration: 3 * time.Second,
		Rates: Rates{
			Drop:       0.02,
			Delay:      0.05,
			Partial:    0.015,
			BitFlip:    0.06,
			Duplicate:  0.05,
			Disconnect: 0.015,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("soak harness: %v", err)
	}
	// allKinds=false: 3 seconds is not enough to guarantee every kind
	// fires; the 20s CI run asserts full coverage.
	for _, v := range rep.Violations(20, false) {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.OK == 0 {
		t.Error("no request succeeded during the soak")
	}
}

// TestDomainSoak runs a compressed ClusterKills soak. The long-form run
// lives in cmd/cinnamon-chaos -mode domains; this is the regression gate.
func TestDomainSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("domain soak skipped in -short mode")
	}
	rep, err := RunSoak(SoakConfig{Scenario: ClusterKills, Seed: 1, Duration: time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatalf("domain soak harness: %v", err)
	}
	for _, v := range rep.Violations(0, false) {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.OK == 0 {
		t.Error("no request succeeded during the soak")
	}
}

// TestViolations: a clean report of either scenario yields no violation,
// and each invariant line fires on its own breach, in the scenarios that
// measure it.
func TestViolations(t *testing.T) {
	const minFaults = 100
	clean := func(s Scenario) Report {
		r := Report{
			Scenario: s, Requests: 10, OK: 10, Faults: map[string]int64{},
			Recovered: true, RecoveryBudget: time.Second, PostChaosOK: true,
			FailoverTime: time.Millisecond, FailoverBudget: time.Second, Failovers: 2, FailbackOK: true,
			SessionRestores: 1, SessionResumed: true, SessionBitExact: true,
		}
		if s == FrameFaults {
			for _, k := range Kinds() {
				r.Faults[k.String()] = minFaults
				r.TotalFaults += minFaults
			}
			r.CorruptFramesDetected = 1
		}
		return r
	}
	both := []Scenario{FrameFaults, ClusterKills}
	cases := []struct {
		name      string
		scenarios []Scenario
		breach    func(*Report)
		want      string
	}{
		{"wrong result", both, func(r *Report) { r.WrongResults = 1 }, "invariant 1:"},
		{"untyped failure", both, func(r *Report) { r.Failed = 1 }, "invariant 2:"},
		{"panic", both, func(r *Report) { r.Panics = 1 }, "invariant 2:"},
		{"not recovered", both, func(r *Report) { r.Recovered = false }, "invariant 3:"},
		{"no traffic after recovery", both, func(r *Report) { r.PostChaosOK = false }, "invariant 3:"},
		{"slow failover", []Scenario{ClusterKills}, func(r *Report) { r.FailoverTime = 2 * time.Second }, "invariant 4:"},
		{"one failover", []Scenario{ClusterKills}, func(r *Report) { r.Failovers = 1 }, "invariant 4:"},
		{"no fail back", []Scenario{ClusterKills}, func(r *Report) { r.FailbackOK = false }, "invariant 4:"},
		{"no restore", []Scenario{ClusterKills}, func(r *Report) { r.SessionRestores = 0 }, "invariant 5:"},
		{"not resumed", []Scenario{ClusterKills}, func(r *Report) { r.SessionResumed = false }, "invariant 5:"},
		{"resume differs", []Scenario{ClusterKills}, func(r *Report) { r.SessionBitExact = false }, "invariant 5:"},
		{"too few faults", []Scenario{FrameFaults}, func(r *Report) { r.TotalFaults = minFaults - 1 }, "coverage:"},
		{"missing kind", []Scenario{FrameFaults}, func(r *Report) { r.Faults[Drop.String()] = 0 }, "coverage: no drop"},
		{"crc blind", []Scenario{FrameFaults}, func(r *Report) { r.CorruptFramesDetected = 0 }, "integrity:"},
	}
	for _, s := range both {
		r := clean(s)
		if v := r.Violations(minFaults, true); len(v) != 0 {
			t.Errorf("clean %s report: %q", s, v)
		}
	}
	for _, c := range cases {
		for _, s := range c.scenarios {
			r := clean(s)
			c.breach(&r)
			v := r.Violations(minFaults, true)
			if len(v) != 1 || !strings.HasPrefix(v[0], c.want) {
				t.Errorf("%s (%s): got %q, want one line starting %q", c.name, s, v, c.want)
			}
		}
	}
}

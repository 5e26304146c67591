package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// metricDef is one row of BENCHMARK.json. The tables below are the source
// the run emits from; manifest_test.go holds BENCHMARK.json to them.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

func bound(b float64) *float64 { return &b }

// endToEnd gates later PRs, per workload. Every bound is the contract's
// widest: runs repeat within 1–5 % while the reference host is quiet, but its
// speed shifts by 10–20 % for minutes at a time (README, "Agreement between
// runs"), and a bound inside that shift would reject honest PRs.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher", bound(0.25)},
	{"latency_p50_ms", "ms", "lower", bound(0.25)},
	{"setup_s", "s", "lower", bound(0.25)},
}

// perLayer is reported with -trace 1 and never gated. Every workload emits
// every name; a metric that does not apply to a workload (cluster.* on the
// local path, bootstrap.* without bootstrapping) reads 0 there.
var perLayer = []metricDef{
	// client: the harness's view of the timed window.
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.p50_ms.square", Unit: "ms", Better: "lower"},
	{Name: "client.p50_ms.rotsum", Unit: "ms", Better: "lower"},
	{Name: "client.p50_ms.logreg16", Unit: "ms", Better: "lower"},
	{Name: "client.p50_ms.xform64", Unit: "ms", Better: "lower"},
	{Name: "client.hot_tenant_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.tail_tenant_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.step_first_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.step_resumed_p50_ms", Unit: "ms", Better: "lower"},
	// setup: the stages of the median set-up; they sum to setup_s.
	{Name: "setup.registry_compile_s", Unit: "s", Better: "lower"},
	{Name: "setup.cluster_dial_s", Unit: "s", Better: "lower"},
	{Name: "setup.boot_s", Unit: "s", Better: "lower"},
	{Name: "setup.keygen_s", Unit: "s", Better: "lower"},
	{Name: "setup.register_s", Unit: "s", Better: "lower"},
	{Name: "setup.encrypt_s", Unit: "s", Better: "lower"},
	{Name: "setup.warmup_s", Unit: "s", Better: "lower"},
	// serve: counters are Snapshot() deltas over the timed window, timings
	// medians over the traced pass.
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_occupancy", Unit: "req/run", Better: "higher"},
	{Name: "serve.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.timeouts", Unit: "count", Better: "lower"},
	{Name: "serve.emulator_fallbacks", Unit: "count", Better: "lower"},
	{Name: "serve.keycache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.keycache_cold_stalls_per_req", Unit: "1/req", Better: "lower"},
	{Name: "serve.keycache_cold_stall_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.keycache_prefetch_useful_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.keycache_evictions_per_req", Unit: "1/req", Better: "lower"},
	{Name: "serve.keycache_resident_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.tenantkeys_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.tenantkeys_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.session_step_self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.sessionlog_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "serve.sessionlog_durable_delta_ms", Unit: "ms", Better: "lower"},
	// The three executors on the same ciphertext (ROADMAP item 2).
	{Name: "emulator.run_ms.rotsum", Unit: "ms", Better: "lower"},
	{Name: "emulator.run_ms.logreg16", Unit: "ms", Better: "lower"},
	{Name: "sched.run_ms.rotsum", Unit: "ms", Better: "lower"},
	{Name: "sched.run_ms.logreg16", Unit: "ms", Better: "lower"},
	{Name: "ckks.reference_ms.rotsum", Unit: "ms", Better: "lower"},
	{Name: "ckks.reference_ms.logreg16", Unit: "ms", Better: "lower"},
	{Name: "limbir.instrs.rotsum", Unit: "count", Better: "lower"},
	{Name: "limbir.instrs.logreg16", Unit: "count", Better: "lower"},
	{Name: "sched.refreshes_per_step", Unit: "1/step", Better: "lower"},
	{Name: "sched.tick_size_mean", Unit: "ct/tick", Better: "higher"},
	{Name: "sched.tick_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bootstrap.solo_ms", Unit: "ms", Better: "lower"},
	{Name: "bootstrap.batch2_ms_per_item", Unit: "ms", Better: "lower"},
	{Name: "bootstrap.share_of_step", Unit: "ratio", Better: "lower"},
	// Kernels at the workload's ring.
	{Name: "ckks.keyswitch_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.mul_relin_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.rotate_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.rescale_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.ct_marshal_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.ct_unmarshal_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.keyswitch_per_ntt", Unit: "ratio", Better: "lower"},
	{Name: "keyswitch.input_broadcast_ms", Unit: "ms", Better: "lower"},
	{Name: "keyswitch.output_aggregation_ms", Unit: "ms", Better: "lower"},
	{Name: "ring.ntt_us", Unit: "us", Better: "lower"},
	{Name: "ring.intt_us", Unit: "us", Better: "lower"},
	{Name: "ring.modup_us", Unit: "us", Better: "lower"},
	{Name: "ring.moddown_us", Unit: "us", Better: "lower"},
	{Name: "ring.automorphism_us", Unit: "us", Better: "lower"},
	{Name: "cluster.keyswitch_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.remote_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.collectives_per_req", Unit: "1/req", Better: "lower"},
	{Name: "cluster.wire_bytes_per_req", Unit: "B/req", Better: "lower"},
	{Name: "cluster.collective_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.collective_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.local_fallbacks", Unit: "count", Better: "lower"},
	{Name: "cluster.reconnects", Unit: "count", Better: "lower"},
	{Name: "cluster.key_pushes_timed", Unit: "count", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.alloc_mb_per_req", Unit: "MB/req", Better: "lower"},
	{Name: "process.gc_pause_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "verify.sampled", Unit: "count", Better: "higher"},
	{Name: "verify.max_slot_err", Unit: "abs", Better: "lower"},
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks the limits the benchmark contract sets on the manifest —
// the ones whose breach refuses a benchmark before a single run.
func (m *manifest) validate() []string {
	var bad []string
	fail := func(format string, a ...any) { bad = append(bad, fmt.Sprintf(format, a...)) }
	if n := len(m.Workloads); n < 2 || n > 8 {
		fail("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		fail("%d end_to_end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		fail("%d per_layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		fail("run_seconds %d, want 1..60", m.RunSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		fail("paths %v, want [bench]", m.Paths)
	}
	if n := len(m.Command); n < 1 || n > 32 {
		fail("command has %d strings, want 1..32", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			fail("%s name %q outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			fail("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			fail("workload %s: why must be 1..200 characters, is %d", w.Name, len(w.Why))
		}
	}
	metric := func(kind string, d metricDef, wantBound bool) {
		name(kind, d.Name)
		if !unitRE.MatchString(d.Unit) {
			fail("%s %s: unit %q", kind, d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			fail("%s %s: better %q", kind, d.Name, d.Better)
		}
		switch {
		case wantBound && (d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25):
			fail("%s %s: bound must be in (0, 0.25]", kind, d.Name)
		case !wantBound && d.Bound != nil:
			fail("%s %s: per-layer metrics have no bound", kind, d.Name)
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		metric("end_to_end", d, true)
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		fail("end_to_end lacks setup_s (unit s, better lower)")
	}
	for _, d := range m.PerLayer {
		metric("per_layer", d, false)
	}
	return bad
}

// value is one emitted metric, in the shape the contract's result line asks.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit renders got under defs' names and units: a declared metric that was
// not measured reads 0, and a measured name that is not declared is a bug.
func emit(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{got[d.Name], d.Unit}
	}
	var stray []string
	for name := range got {
		if _, ok := out[name]; !ok {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("measured but undeclared metrics: %v", stray)
	}
	return out, nil
}

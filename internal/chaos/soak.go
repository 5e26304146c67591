package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/serve"
	"cinnamon/internal/workloads"
)

// Scenario is what a soak does to the stack. Both scenarios boot the same
// stack, drive it with the same closed-loop clients and judge it with the
// same oracle and the same Violations.
type Scenario string

const (
	// FrameFaults runs the seeded per-frame fault schedule for one load
	// phase against a single cluster; requests may replay locally.
	FrameFaults Scenario = "soak"
	// ClusterKills runs two clusters behind a core that requires the
	// cluster and logs sessions durably: the primary cluster is killed
	// whole for one load phase, revived, the other killed for a second
	// (fail back), then the core restarts mid-session.
	ClusterKills Scenario = "domains"
)

// The stack both scenarios boot.
const (
	logN, levels     = 8, 4 // 4 levels: a ClusterKills session squares three times
	workers          = 3    // per cluster
	clients          = 3    // closed-loop load clients
	inputsPerProgram = 4
	heartbeat        = 250 * time.Millisecond
	rpcTimeout       = 500 * time.Millisecond // small: every dropped frame costs one
	requestTimeout   = 5 * time.Second
	delayMin         = 500 * time.Microsecond
	delayMax         = 5 * time.Millisecond
	tenant           = "chaos"

	// recoveryBudget bounds the return to full health once faults stop:
	// an in-flight RPC burns its deadline, the next heartbeat tick redials
	// the lost session, plus dial slack.
	recoveryBudget = rpcTimeout + heartbeat + 2*time.Second
	// failoverBudget bounds kill-of-primary to first verified success: a
	// request burns one RPC deadline per attempt (the first and its one
	// in-line retry) on the dead cluster before it moves to the survivor.
	failoverBudget = 2*rpcTimeout + heartbeat + 2*time.Second
)

// programs are served in both scenarios: one multiply chain, one rotation
// chain (both collective kinds), and square, the ClusterKills session.
var programs = []string{"quartic", "rotsum", "square"}

// SoakConfig parameterizes one soak.
type SoakConfig struct {
	Scenario Scenario
	// Seed drives the fault schedule, the request inputs and the load mix.
	Seed int64
	// Duration is the length of each load phase.
	Duration time.Duration
	// Rates is the FrameFaults profile. Zero value selects DefaultRates.
	Rates Rates
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Report is the measured outcome of one soak, judged by Violations.
type Report struct {
	Scenario Scenario `json:"scenario"`

	// Requests by how they ended: the outcomes the failure model allows
	// (ok, shed, timeout, degraded) and the two it forbids.
	Requests       int64    `json:"requests"`
	OK             int64    `json:"ok"`
	Shed           int64    `json:"shed"`          // ErrOverloaded (typed, retryable)
	Timeouts       int64    `json:"timeouts"`      // context deadline (typed)
	Degraded       int64    `json:"degraded"`      // cluster.ErrDegraded (typed)
	Failed         int64    `json:"failed"`        // anything untyped
	WrongResults   int64    `json:"wrong_results"` // bytes differ from the control core's
	FailureSamples []string `json:"failure_samples,omitempty"`

	Panics       int64 `json:"panics"`
	LocalReplays int64 `json:"local_replays"`
	Reconnects   int64 `json:"reconnects"`
	CircuitOpens int64 `json:"circuit_opens"`

	Faults                map[string]int64 `json:"faults_injected"`
	TotalFaults           int64            `json:"total_faults"`
	CorruptFramesDetected int64            `json:"corrupt_frames_detected"`

	Recovered      bool          `json:"recovered"`
	RecoveryTime   time.Duration `json:"recovery_time_ns"`
	RecoveryBudget time.Duration `json:"recovery_budget_ns"`
	PostChaosOK    bool          `json:"post_chaos_ok"` // verified requests after recovery

	FailoverTime    time.Duration `json:"failover_time_ns"`
	FailoverBudget  time.Duration `json:"failover_budget_ns"`
	Failovers       int64         `json:"failovers_total"`
	FailbackOK      bool          `json:"failback_ok"`
	SessionRestores int64         `json:"session_restores_total"`
	SessionResumed  bool          `json:"session_resumed"`
	SessionBitExact bool          `json:"session_bit_exact"`
}

// Violations judges the report against the failure model and returns one
// line per breach; empty means the soak passed. Both scenarios are held to
// invariants 1–3; the rest apply to the scenario that measures them.
//
//  1. No wrong result: every response is byte-equal to the control core's.
//  2. Every fault resolves typed — retried, degraded-and-counted or shed;
//     never an untyped error, never a panic.
//  3. After faults stop every cluster is fully healthy within the recovery
//     budget, and verified traffic flows again.
//  4. (ClusterKills) Killing the primary cluster moves traffic to the
//     survivor within the failover budget; killing the survivor moves it
//     back.
//  5. (ClusterKills) A restart mid-session resumes the session from its
//     log, byte-equal to an uninterrupted run.
//
// FrameFaults also checks coverage: at least minFaults faults, every kind
// when allKinds, and bit flips caught by the frame CRC.
func (r *Report) Violations(minFaults int64, allKinds bool) []string {
	var v []string
	if r.WrongResults > 0 {
		v = append(v, fmt.Sprintf("invariant 1: %d responses differ from the control core's", r.WrongResults))
	}
	if r.Failed > 0 {
		v = append(v, fmt.Sprintf("invariant 2: %d requests failed with untyped errors: %v", r.Failed, r.FailureSamples))
	}
	if r.Panics > 0 {
		v = append(v, fmt.Sprintf("invariant 2: %d unhandled panics recovered by the serving layer", r.Panics))
	}
	if !r.Recovered {
		v = append(v, fmt.Sprintf("invariant 3: clusters not fully healthy %v after faults stopped", r.RecoveryBudget))
	}
	if !r.PostChaosOK {
		v = append(v, "invariant 3: verified requests failed after recovery")
	}
	if r.Scenario == ClusterKills {
		if r.FailoverTime > r.FailoverBudget {
			v = append(v, fmt.Sprintf("invariant 4: failover took %v, budget %v", r.FailoverTime, r.FailoverBudget))
		}
		if r.Failovers < 2 {
			v = append(v, fmt.Sprintf("invariant 4: failovers_total = %d, want >= 2 (over and back)", r.Failovers))
		}
		if !r.FailbackOK {
			v = append(v, "invariant 4: no verified success after failing back")
		}
		if r.SessionRestores < 1 {
			v = append(v, "invariant 5: restarted core replayed no sessions")
		}
		if !r.SessionResumed {
			v = append(v, "invariant 5: session did not resume after the restart")
		}
		if !r.SessionBitExact {
			v = append(v, "invariant 5: resumed session differs from the uninterrupted run")
		}
		return v
	}
	if r.TotalFaults < minFaults {
		v = append(v, fmt.Sprintf("coverage: %d faults injected, want >= %d", r.TotalFaults, minFaults))
	}
	if allKinds {
		for _, k := range Kinds() {
			if r.Faults[k.String()] == 0 {
				v = append(v, fmt.Sprintf("coverage: no %s fault injected", k))
			}
		}
	}
	if r.Faults[BitFlip.String()] > 0 && r.CorruptFramesDetected == 0 {
		v = append(v, "integrity: bit flips injected but zero corrupt frames detected (CRC not working)")
	}
	return v
}

// input is one precomputed request and its oracle: the control core's
// response to it, as ct.Write bytes.
type input struct {
	program string
	ct      *ckks.Ciphertext
	want    []byte
}

// harness is the one stack both scenarios run on.
type harness struct {
	cfg SoakConfig
	inj *Injector
	reg *serve.Registry

	engines []*cluster.Engine
	dialers [][]*cluster.PipeDialer // per cluster, to kill and revive it
	coreCfg serve.Config
	core    *serve.Core
	control *serve.Core // no backends: the oracle
	inputs  []input
	dir     string // ClusterKills session log

	corruptBase int64
	mu          sync.Mutex // guards rep's tallies
	rep         *Report
}

// RunSoak boots the stack, warms it up, runs cfg.Scenario under verified
// load and ends with the recovery check. The report carries every counter
// the invariants are judged on; err is a harness failure (setup broke),
// not an invariant breach.
func RunSoak(cfg SoakConfig) (*Report, error) {
	if cfg.Scenario != FrameFaults && cfg.Scenario != ClusterKills {
		return nil, fmt.Errorf("chaos: unknown scenario %q", cfg.Scenario)
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("chaos: Duration must be positive")
	}
	if cfg.Rates == (Rates{}) {
		cfg.Rates = DefaultRates()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	h := &harness{cfg: cfg, corruptBase: cluster.CorruptFrames(), rep: &Report{
		Scenario:       cfg.Scenario,
		Faults:         map[string]int64{},
		RecoveryBudget: recoveryBudget,
	}}
	defer h.close()
	if err := h.boot(); err != nil {
		return nil, err
	}
	for i := 0; i < len(h.inputs); i += inputsPerProgram {
		if !h.submit(h.inputs[i]) {
			return h.rep, fmt.Errorf("chaos: warmup request for %q failed before any fault was injected", h.inputs[i].program)
		}
	}
	if cfg.Scenario == ClusterKills {
		if err := h.killClusters(); err != nil {
			return h.rep, err
		}
	} else {
		cfg.Logf("warmup ok; enabling chaos for %v (seed %d)", cfg.Duration, cfg.Seed)
		h.inj.SetEnabled(true)
		h.load()
		h.inj.SetEnabled(false)
	}
	h.finish()
	return h.rep, nil
}

// boot builds the stack with the injector disabled: registry, the
// tenant's keys, the clusters of in-process workers behind injector-wrapped
// dialers, one engine per cluster, the serving core, and the oracle — every
// input run once through a control core with no backends.
func (h *harness) boot() error {
	var specs []workloads.ServeWorkload
	for _, name := range programs {
		spec, ok := workloads.ServeWorkloadByName(name)
		if !ok {
			return fmt.Errorf("chaos: no serve workload %q", name)
		}
		specs = append(specs, spec)
	}
	reg, err := serve.NewRegistry(serve.RegistryConfig{Literal: workloads.ServeParamsLiteral(logN, levels, 20260805), Programs: specs})
	if err != nil {
		return err
	}
	h.reg = reg
	params := reg.Params
	var rots []int
	for _, name := range reg.ProgramNames() {
		p, _ := reg.Program(name)
		rots = append(rots, p.Rotations...)
	}

	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		return err
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		return err
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		return err
	}
	rtks, err := kg.GenRotationKeySet(sk, rots, false)
	if err != nil {
		return err
	}
	keys := map[string]*ckks.EvalKey{"rlk": rlk}
	for k, key := range rtks.Keys {
		keys[fmt.Sprintf("rot:%d", k)] = key
	}
	if err := reg.RegisterTenant(tenant, keys); err != nil {
		return err
	}

	h.coreCfg = serve.Config{
		Workers:         2,
		AdmissionLimit:  64,
		RequestTimeout:  requestTimeout,
		CircuitCooldown: 250 * time.Millisecond,
	}
	clusters := 1
	if h.cfg.Scenario == ClusterKills {
		clusters = 2
		if h.dir, err = os.MkdirTemp("", "cinnamon-chaos-*"); err != nil {
			return err
		}
		h.coreCfg.RequireCluster = true
		h.coreCfg.SessionLog = filepath.Join(h.dir, "sessions.log")
	}
	h.inj = NewInjector(Config{Seed: h.cfg.Seed, Rates: h.cfg.Rates, DelayMin: delayMin, DelayMax: delayMax})
	for m := 0; m < clusters; m++ {
		pds := make([]*cluster.PipeDialer, workers)
		ds := make([]cluster.Dialer, workers)
		for i := range pds {
			w := cluster.NewWorker(params)
			w.PartialFrameTimeout = 2 * rpcTimeout
			pds[i] = cluster.NewPipeDialer(w)
			ds[i] = h.inj.WrapDialer(fmt.Sprintf("w%d", m*workers+i), pds[i])
		}
		eng, err := cluster.NewEngine(params, ds, cluster.Options{
			RPCTimeout:        rpcTimeout,
			DialTimeout:       2 * time.Second,
			RetryBackoff:      10 * time.Millisecond,
			HeartbeatInterval: heartbeat,
		})
		if err != nil {
			return fmt.Errorf("chaos: cluster %d startup: %w", m, err)
		}
		h.engines = append(h.engines, eng)
		h.dialers = append(h.dialers, pds)
		h.coreCfg.Backends = append(h.coreCfg.Backends, serve.BackendSpec{Engine: eng})
	}
	if err := h.startCore(); err != nil {
		return err
	}

	h.control = serve.NewCore(reg, serve.Config{Workers: 1, RequestTimeout: requestTimeout})
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk)
	rng := rand.New(rand.NewSource(h.cfg.Seed))
	for _, spec := range specs {
		for k := 0; k < inputsPerProgram; k++ {
			v := make([]complex128, params.Slots())
			for i := range v {
				v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			}
			pt, err := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
			if err != nil {
				return err
			}
			ct, err := encr.Encrypt(pt)
			if err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			out, err := h.control.Submit(ctx, spec.Name, tenant, ct)
			cancel()
			if err != nil {
				return fmt.Errorf("chaos: control run of %q: %w", spec.Name, err)
			}
			h.inputs = append(h.inputs, input{program: spec.Name, ct: ct, want: ctBytes(out)})
		}
	}
	return nil
}

// killClusters is the ClusterKills scenario between warmup and recovery.
func (h *harness) killClusters() error {
	const program = "square"
	in := h.inputs[0].ct
	si, err := h.core.CreateSession(tenant, program)
	if err != nil {
		return fmt.Errorf("chaos: create session: %w", err)
	}
	if _, _, err := step(h.core, si.ID, in); err != nil {
		return fmt.Errorf("chaos: session step 1: %w", err)
	}

	victim := 0
	for i, b := range h.core.Health().Backends {
		if b.Primary {
			victim = i
		}
	}
	h.cfg.Logf("killing primary cluster c%d (all %d workers)", victim, workers)
	h.setDown(victim, true)
	killAt := time.Now()
	h.rep.FailoverBudget = failoverBudget
	h.rep.FailoverTime = failoverBudget + 1 // a breach until a success lands
	if first := h.load(); !first.IsZero() {
		h.rep.FailoverTime = first.Sub(killAt)
		h.cfg.Logf("failed over in %v", h.rep.FailoverTime.Round(time.Millisecond))
	}
	h.cfg.Logf("reviving cluster c%d", victim)
	h.setDown(victim, false)
	awaitHealthy(h.engines[victim:victim+1], recoveryBudget)

	other := 1 - victim
	h.cfg.Logf("killing cluster c%d (fail back)", other)
	h.setDown(other, true)
	h.rep.FailbackOK = !h.load().IsZero()
	h.setDown(other, false)

	// Step once more, then restart the core over the same log and engines.
	_, pre, err := step(h.core, si.ID, nil)
	if err != nil {
		return fmt.Errorf("chaos: session step 2: %w", err)
	}
	h.cfg.Logf("restarting the core mid-session (session %s at step %d)", si.ID, pre.Steps)
	h.stopCore()
	if err := h.startCore(); err != nil {
		return fmt.Errorf("chaos: core restart: %w", err)
	}
	info, err := h.core.Session(si.ID)
	resumed, _, serr := step(h.core, si.ID, nil)
	if h.rep.SessionResumed = err == nil && serr == nil && info.Steps == pre.Steps; !h.rep.SessionResumed {
		return nil
	}

	// The uninterrupted run: the same input stepped as often on the control core.
	ci, err := h.control.CreateSession(tenant, program)
	if err != nil {
		return fmt.Errorf("chaos: control session: %w", err)
	}
	var want *ckks.Ciphertext
	for s := 0; s <= pre.Steps; s, in = s+1, nil {
		if want, _, err = step(h.control, ci.ID, in); err != nil {
			return fmt.Errorf("chaos: control session step %d: %w", s+1, err)
		}
	}
	h.rep.SessionBitExact = bytes.Equal(ctBytes(resumed), ctBytes(want))
	return nil
}

// finish ends both scenarios: every cluster fully healthy within the
// recovery budget, verified traffic flowing again (which also drives a
// breaker's probe if the run left a circuit open), and the counters.
func (h *harness) finish() {
	r := h.rep
	r.Recovered, r.RecoveryTime = awaitHealthy(h.engines, recoveryBudget)
	r.PostChaosOK = true
	for i := 0; i < len(h.inputs); i += inputsPerProgram {
		ok := false
		for try := 0; try < 3 && !ok; try++ {
			ok = h.submit(h.inputs[i])
		}
		r.PostChaosOK = r.PostChaosOK && ok
	}
	h.stopCore()
	for k, n := range h.inj.Counts() {
		r.Faults[k.String()] = n
	}
	r.TotalFaults = h.inj.Total()
	r.CorruptFramesDetected = cluster.CorruptFrames() - h.corruptBase
	for _, eng := range h.engines {
		r.Reconnects += eng.Snapshot().Reconnects
	}
	h.cfg.Logf("%s done: %d requests (%d ok, %d shed, %d timeout, %d degraded, %d failed, %d wrong), %d faults, %d corrupt frames detected, %d local replays, recovered in %v",
		r.Scenario, r.Requests, r.OK, r.Shed, r.Timeouts, r.Degraded, r.Failed, r.WrongResults,
		r.TotalFaults, r.CorruptFramesDetected, r.LocalReplays, r.RecoveryTime.Round(time.Millisecond))
}

// load runs the closed-loop clients for one load phase and returns when
// the first verified success landed (zero if none did).
func (h *harness) load() time.Time {
	var first atomic.Int64
	deadline := time.Now().Add(h.cfg.Duration)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if h.submit(h.inputs[rng.Intn(len(h.inputs))]) {
					first.CompareAndSwap(0, time.Now().UnixNano())
				}
			}
		}(rand.New(rand.NewSource(h.cfg.Seed + int64(g) + 1)))
	}
	wg.Wait()
	if ns := first.Load(); ns != 0 {
		return time.Unix(0, ns)
	}
	return time.Time{}
}

// submit sends one input to the core and tallies how it ended; true only
// for a verified success — a response byte-equal to the control core's.
func (h *harness) submit(in input) bool {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	out, err := h.core.Submit(ctx, in.program, tenant, in.ct)
	cancel()
	ok := err == nil && bytes.Equal(ctBytes(out), in.want)
	if err == nil && !ok {
		h.cfg.Logf("WRONG RESULT: %s response differs from the control core's", in.program)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.rep
	r.Requests++
	switch {
	case ok:
		r.OK++
	case err == nil:
		r.WrongResults++
	case errors.Is(err, serve.ErrOverloaded):
		r.Shed++
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		r.Timeouts++
	case errors.Is(err, cluster.ErrDegraded):
		r.Degraded++
	default:
		r.Failed++
		if len(r.FailureSamples) < 5 {
			r.FailureSamples = append(r.FailureSamples, err.Error())
		}
	}
	return ok
}

func (h *harness) startCore() (err error) {
	h.core, err = serve.NewDurableCore(h.reg, h.coreCfg)
	return err
}

// stopCore drains the core and folds its counters into the report, so a
// restarted core's counts add to its predecessor's.
func (h *harness) stopCore() {
	drain(h.core)
	snap := h.core.Metrics().Snapshot()
	r := h.rep
	r.Panics += snap.Panics
	r.LocalReplays += snap.EmulatorFallbacks
	r.Failovers += snap.Failovers
	r.SessionRestores += snap.SessionRestores
	for _, b := range snap.Backends {
		r.CircuitOpens += b.Opens
	}
	h.core = nil
}

// setDown kills (down) or revives every worker of cluster m.
func (h *harness) setDown(m int, down bool) {
	for _, d := range h.dialers[m] {
		if down {
			d.Kill()
		} else {
			d.Revive()
		}
	}
}

// close releases whatever boot and the scenario left running.
func (h *harness) close() {
	if h.core != nil {
		drain(h.core)
	}
	if h.control != nil {
		drain(h.control)
	}
	for _, eng := range h.engines {
		eng.Close()
	}
	if h.dir != "" {
		os.RemoveAll(h.dir)
	}
}

// awaitHealthy polls until every worker of every engine holds a session
// or budget runs out, and reports which and how long it waited.
func awaitHealthy(engines []*cluster.Engine, budget time.Duration) (bool, time.Duration) {
	start := time.Now()
	for {
		healthy := true
		for _, eng := range engines {
			healthy = healthy && eng.Healthy()
		}
		if healthy || time.Since(start) >= budget {
			return healthy, time.Since(start)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func step(c *serve.Core, id string, ct *ckks.Ciphertext) (*ckks.Ciphertext, serve.SessionInfo, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	return c.SessionStep(ctx, id, ct)
}

func drain(c *serve.Core) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c.Close(ctx)
}

// ctBytes is the oracle's view of a ciphertext: its wire encoding.
func ctBytes(ct *ckks.Ciphertext) []byte {
	var b bytes.Buffer
	ct.Write(&b) // writing to a bytes.Buffer cannot fail
	return b.Bytes()
}

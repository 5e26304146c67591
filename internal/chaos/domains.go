package chaos

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/serve"
	"cinnamon/internal/workloads"
)

// The domain soak exercises whole-failure-domain faults — faults the
// per-frame injector cannot express: every worker of a cluster dying at
// once, a cluster dying and coming back, and the coordinator process
// itself restarting mid-session. It boots M independent worker clusters
// behind one serving core (the backend set), kills them in turn under
// verified load, then restarts the core over its durable session log and
// checks the resumed session is bit-identical to an uninterrupted run.

// DomainConfig parameterizes one failure-domain soak.
type DomainConfig struct {
	// Seed drives request inputs and kill ordering.
	Seed int64
	// Clusters is the backend count. Default 2.
	Clusters int
	// Workers is each cluster's width. Default 2.
	Workers int
	// LogN/Levels size the CKKS parameter set. Defaults 8/4 (the session
	// walks one level per step; 4 levels cover the soak's step count).
	LogN, Levels int
	// PhaseLoad is how long verified load runs in each kill phase.
	// Default 2s.
	PhaseLoad time.Duration
	// Heartbeat is each engine's heartbeat interval. Default 100ms.
	Heartbeat time.Duration
	// RPCTimeout bounds one per-worker collective RPC. Default 500ms.
	RPCTimeout time.Duration
	// RequestTimeout bounds one request end to end. Default 5s.
	RequestTimeout time.Duration
	// Tolerance is the max slot error a response may show. Default 1e-3.
	Tolerance float64
	// Dir holds the session checkpoint log; a temp dir (cleaned up) when
	// empty.
	Dir string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c DomainConfig) withDefaults() DomainConfig {
	if c.Clusters <= 0 {
		c.Clusters = 2
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.LogN <= 0 {
		c.LogN = 8
	}
	if c.Levels <= 0 {
		c.Levels = 4
	}
	if c.PhaseLoad <= 0 {
		c.PhaseLoad = 2 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 500 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-3
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// DomainReport is the measured outcome of one domain soak.
type DomainReport struct {
	Outcomes

	// FailoverTime is kill-of-primary to first verified success on the
	// surviving backend; FailoverBudget what the failure model allows
	// (one burned RPC deadline per retry, a heartbeat tick, dial slack).
	FailoverTime   time.Duration `json:"failover_time_ns"`
	FailoverBudget time.Duration `json:"failover_budget_ns"`
	Failovers      int64         `json:"failovers_total"`
	FailbackOK     bool          `json:"failback_ok"`

	// Session durability across the coordinator restart.
	SessionRestores int64 `json:"session_restores_total"`
	SessionResumed  bool  `json:"session_resumed"`
	SessionBitExact bool  `json:"session_bit_exact"`
	RecoveredAll    bool  `json:"recovered_all"` // every cluster fully healthy at the end
}

// Violations judges the report against the failure-domain invariants:
//
//  1. No response ever decrypts wrong, through every kill and restart.
//  2. Killing the primary cluster moves traffic to a survivor within the
//     failover budget; killing the survivor moves it back.
//  3. A coordinator restart mid-session resumes the session from the
//     checkpoint log, bit-identical to a run that never restarted.
//  4. Revived clusters return to full health (no permanent degradation).
func (r *DomainReport) Violations() []string {
	var v []string
	if r.WrongResults > 0 {
		v = append(v, fmt.Sprintf("invariant 1: %d responses decrypted wrong", r.WrongResults))
	}
	if r.Failed > 0 {
		v = append(v, fmt.Sprintf("invariant 1: %d requests failed untyped: %v", r.Failed, r.FailureSamples))
	}
	if r.FailoverTime > r.FailoverBudget {
		v = append(v, fmt.Sprintf("invariant 2: failover took %v, budget %v", r.FailoverTime, r.FailoverBudget))
	}
	if r.Failovers < 2 {
		v = append(v, fmt.Sprintf("invariant 2: failovers_total = %d, want >= 2 (over and back)", r.Failovers))
	}
	if !r.FailbackOK {
		v = append(v, "invariant 2: no verified success after failing back")
	}
	if r.SessionRestores < 1 {
		v = append(v, "invariant 3: restarted coordinator replayed no sessions")
	}
	if !r.SessionResumed {
		v = append(v, "invariant 3: session did not resume after coordinator restart")
	}
	if !r.SessionBitExact {
		v = append(v, "invariant 3: resumed session diverged from the uninterrupted run")
	}
	if !r.RecoveredAll {
		v = append(v, "invariant 4: not every cluster returned to full health")
	}
	return v
}

// RunDomainSoak boots M clusters behind one durable serving core and runs
// the kill / revive / restart schedule. err is a harness failure; the
// report's Violations are the verdict.
func RunDomainSoak(cfg DomainConfig) (*DomainReport, error) {
	cfg = cfg.withDefaults()
	rep := &DomainReport{}

	lit := workloads.ServeParamsLiteral(cfg.LogN, cfg.Levels, 20260805)
	spec, ok := workloads.ServeWorkloadByName("square")
	if !ok {
		return nil, fmt.Errorf("chaos: no serve workload %q", "square")
	}
	reg, err := serve.NewRegistry(serve.RegistryConfig{Literal: lit, Programs: []workloads.ServeWorkload{spec}})
	if err != nil {
		return nil, err
	}
	params := reg.Params

	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		return nil, err
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		return nil, err
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		return nil, err
	}
	keys := map[string]*ckks.EvalKey{"rlk": rlk}
	const tenant = "chaos"
	if err := reg.RegisterTenant(tenant, keys); err != nil {
		return nil, err
	}

	// M independent failure domains: separate workers, separate dialers,
	// separate engines (a dead cluster fails its collectives typed).
	engines := make([]*cluster.Engine, cfg.Clusters)
	domainDialers := make([][]*cluster.PipeDialer, cfg.Clusters)
	engOpts := cluster.Options{
		RPCTimeout:        cfg.RPCTimeout,
		DialTimeout:       2 * time.Second,
		RetryBackoff:      10 * time.Millisecond,
		HeartbeatInterval: cfg.Heartbeat,
	}
	for m := 0; m < cfg.Clusters; m++ {
		pds := make([]*cluster.PipeDialer, cfg.Workers)
		ds := make([]cluster.Dialer, cfg.Workers)
		for i := range pds {
			pds[i] = cluster.NewPipeDialer(cluster.NewWorker(params))
			ds[i] = pds[i]
		}
		eng, err := cluster.NewEngine(params, ds, engOpts)
		if err != nil {
			return nil, fmt.Errorf("chaos: cluster %d startup: %w", m, err)
		}
		defer eng.Close()
		if err := eng.EnsureKeys(keysList(keys)...); err != nil {
			return nil, fmt.Errorf("chaos: cluster %d key pre-push: %w", m, err)
		}
		engines[m] = eng
		domainDialers[m] = pds
	}

	dir := cfg.Dir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "cinnamon-domains-*"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	logPath := filepath.Join(dir, "sessions.log")

	coreCfg := serve.Config{
		Workers:          2,
		AdmissionLimit:   64,
		RequestTimeout:   cfg.RequestTimeout,
		RequireCluster:   true,
		CircuitThreshold: 3,
		CircuitCooldown:  250 * time.Millisecond,
		SessionLog:       logPath,
	}
	for m, eng := range engines {
		coreCfg.Backends = append(coreCfg.Backends, serve.BackendSpec{Name: fmt.Sprintf("c%d", m), Engine: eng})
	}
	core, err := serve.NewDurableCore(reg, coreCfg)
	if err != nil {
		return nil, err
	}
	closeCore := func(c *serve.Core) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Close(ctx)
	}

	// --- crypto plumbing ---
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk)
	decr := ckks.NewDecryptor(params, sk)
	rng := rand.New(rand.NewSource(cfg.Seed))

	encrypt := func() (*ckks.Ciphertext, []complex128, error) {
		v := make([]complex128, params.Slots())
		for i := range v {
			v[i] = complex(rng.Float64()*2-1, 0)
		}
		pt, err := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
		if err != nil {
			return nil, nil, err
		}
		ct, err := encr.Encrypt(pt)
		return ct, v, err
	}
	decrypt := func(ct *ckks.Ciphertext) ([]complex128, error) {
		pt, err := decr.Decrypt(ct)
		if err != nil {
			return nil, err
		}
		return enc.Decode(pt, params.Slots())
	}

	in, inSlots, err := encrypt()
	if err != nil {
		return nil, err
	}
	want := make([]complex128, len(inSlots))
	for i, x := range inSlots {
		want[i] = x * x
	}

	// runOne submits the precomputed square input; true on a verified success.
	submit := rep.verifiedSubmit(core, tenant, cfg.RequestTimeout, cfg.Tolerance, decrypt, cfg.Logf)
	runOne := func() bool { return submit("square", in, want) }

	// --- warmup ---
	if !runOne() {
		closeCore(core)
		return rep, fmt.Errorf("chaos: warmup request failed before any fault")
	}

	// --- durable session, step 1 (pre-kill) ---
	sessIn, _, err := encrypt()
	if err != nil {
		closeCore(core)
		return nil, err
	}
	si, err := core.CreateSession(tenant, "square")
	if err != nil {
		closeCore(core)
		return nil, fmt.Errorf("chaos: create session: %w", err)
	}
	stepCtx, cancel := context.WithTimeout(context.Background(), cfg.RequestTimeout)
	_, _, err = core.SessionStep(stepCtx, si.ID, sessIn)
	cancel()
	if err != nil {
		closeCore(core)
		return nil, fmt.Errorf("chaos: session step 1: %w", err)
	}

	primaryIdx := func() int {
		for _, bh := range core.Health().Backends {
			if bh.Primary {
				var m int
				fmt.Sscanf(bh.Name, "c%d", &m)
				return m
			}
		}
		return 0
	}

	// --- phase: kill the whole primary cluster under load ---
	// Budget: the in-flight run burns one RPC deadline per attempt (the
	// first and its one in-line retry) on the dead backend, the loop moves
	// to the survivor in the same request; a heartbeat tick marks the dead
	// links; dial slack on top.
	rep.FailoverBudget = 2*cfg.RPCTimeout + cfg.Heartbeat + 2*time.Second
	victim := primaryIdx()
	cfg.Logf("killing primary cluster c%d (all %d workers)", victim, cfg.Workers)
	for _, d := range domainDialers[victim] {
		d.Kill()
	}
	killAt := time.Now()
	deadline := killAt.Add(cfg.PhaseLoad)
	rep.FailoverTime = rep.FailoverBudget + 1 // poisoned until a success lands
	for time.Now().Before(deadline) {
		if runOne() && rep.FailoverTime > rep.FailoverBudget {
			rep.FailoverTime = time.Since(killAt)
			cfg.Logf("failed over in %v", rep.FailoverTime.Round(time.Millisecond))
		}
	}

	// --- phase: revive, wait for full recovery of the killed domain ---
	cfg.Logf("reviving cluster c%d", victim)
	for _, d := range domainDialers[victim] {
		d.Revive()
	}
	reviveBudget := rep.FailoverBudget
	reviveStart := time.Now()
	for time.Since(reviveStart) < reviveBudget && engines[victim].HealthyWorkers() != engines[victim].NChips() {
		time.Sleep(10 * time.Millisecond)
	}

	// --- phase: kill the other domain, traffic fails back ---
	other := 1 - victim
	if cfg.Clusters > 2 {
		other = (victim + 1) % cfg.Clusters
	}
	cfg.Logf("killing cluster c%d (fail back)", other)
	for _, d := range domainDialers[other] {
		d.Kill()
	}
	deadline = time.Now().Add(cfg.PhaseLoad)
	for time.Now().Before(deadline) {
		if runOne() {
			rep.FailbackOK = true
		}
	}
	for _, d := range domainDialers[other] {
		d.Revive()
	}

	// --- phase: coordinator restart mid-session ---
	// Step the session once more, then "crash" the coordinator: close the
	// core and boot a fresh one over the same checkpoint log and engines.
	stepCtx, cancel = context.WithTimeout(context.Background(), cfg.RequestTimeout)
	_, preRestart, err := core.SessionStep(stepCtx, si.ID, nil)
	cancel()
	if err != nil {
		closeCore(core)
		return rep, fmt.Errorf("chaos: session step 2: %w", err)
	}
	rep.Failovers = core.Metrics().Snapshot().Failovers
	cfg.Logf("restarting coordinator mid-session (session %s at step %d)", si.ID, preRestart.Steps)
	closeCore(core)

	core, err = serve.NewDurableCore(reg, coreCfg)
	if err != nil {
		return rep, fmt.Errorf("chaos: coordinator restart: %w", err)
	}
	defer closeCore(core)
	rep.SessionRestores = core.Metrics().Snapshot().SessionRestores

	resumedInfo, err := core.Session(si.ID)
	if err == nil && resumedInfo.Steps == preRestart.Steps {
		rep.SessionResumed = true
	}
	stepCtx, cancel = context.WithTimeout(context.Background(), cfg.RequestTimeout)
	resumedOut, _, err := core.SessionStep(stepCtx, si.ID, nil)
	cancel()
	if err != nil {
		rep.SessionResumed = false
		return rep, nil
	}

	// Uninterrupted control: the same input stepped the same number of
	// times on a local core (the emulator and cluster paths are
	// bit-identical by construction). Bit-equal ciphertexts mean the
	// restart was invisible.
	ctrl := serve.NewCore(reg, serve.Config{Workers: 1, RequestTimeout: cfg.RequestTimeout})
	ci, err := ctrl.CreateSession(tenant, "square")
	if err != nil {
		closeCore(ctrl)
		return rep, err
	}
	ctrlIn := sessIn
	var ctrlOut *ckks.Ciphertext
	for s := 0; s < preRestart.Steps+1; s++ {
		stepCtx, cancel = context.WithTimeout(context.Background(), cfg.RequestTimeout)
		ctrlOut, _, err = ctrl.SessionStep(stepCtx, ci.ID, ctrlIn)
		cancel()
		if err != nil {
			closeCore(ctrl)
			return rep, fmt.Errorf("chaos: control session step %d: %w", s+1, err)
		}
		ctrlIn = nil
	}
	closeCore(ctrl)
	var a, b bytes.Buffer
	if err := resumedOut.Write(&a); err != nil {
		return rep, err
	}
	if err := ctrlOut.Write(&b); err != nil {
		return rep, err
	}
	rep.SessionBitExact = bytes.Equal(a.Bytes(), b.Bytes())

	// --- final: every domain fully healthy again ---
	healDeadline := time.Now().Add(rep.FailoverBudget)
	for time.Now().Before(healDeadline) {
		rep.RecoveredAll = true
		for _, eng := range engines {
			if eng.HealthyWorkers() != eng.NChips() {
				rep.RecoveredAll = false
			}
		}
		if rep.RecoveredAll {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if f := core.Metrics().Snapshot().Failovers; f > rep.Failovers {
		rep.Failovers = f
	}
	cfg.Logf("domains done: %d requests (%d ok, %d shed, %d timeout, %d degraded, %d failed), failover %v (budget %v), %d failovers, restores %d, bit-exact %v",
		rep.Requests, rep.OK, rep.Shed, rep.Timeouts, rep.Degraded, rep.Failed,
		rep.FailoverTime.Round(time.Millisecond), rep.FailoverBudget, rep.Failovers, rep.SessionRestores, rep.SessionBitExact)
	return rep, nil
}

package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/serve"
	"cinnamon/internal/workloads"
)

// SoakConfig parameterizes one chaos soak: an in-process worker cluster
// behind the serving runtime, verified load, and a seeded fault schedule.
type SoakConfig struct {
	// Seed drives both the fault schedule and the request inputs.
	Seed int64
	// Duration is how long chaos-phase load runs.
	Duration time.Duration
	// Workers is the cluster width. Default 3.
	Workers int
	// Concurrency is the closed-loop client count. Default 3.
	Concurrency int
	// LogN/Levels size the CKKS parameter set. Defaults 8/3.
	LogN, Levels int
	// Programs are the catalog entries to serve. Default quartic+rotsum
	// (one multiply chain, one rotation chain — both collective kinds).
	Programs []string
	// Rates is the fault profile. Zero value selects DefaultRates.
	Rates Rates
	// DelayMin/DelayMax bound injected delivery delays.
	DelayMin, DelayMax time.Duration
	// Heartbeat is the engine's heartbeat interval. Default 250ms.
	Heartbeat time.Duration
	// RPCTimeout bounds one per-worker collective RPC. Default 500ms. Keep
	// it small: every dropped frame costs one of these.
	RPCTimeout time.Duration
	// RequestTimeout bounds one request end to end. Default 5s.
	RequestTimeout time.Duration
	// Tolerance is the max slot error a response may show against the
	// reference evaluation. Default 1e-3.
	Tolerance float64
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Duration <= 0 {
		c.Duration = 20 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 3
	}
	if c.LogN <= 0 {
		c.LogN = 8
	}
	if c.Levels <= 0 {
		c.Levels = 3
	}
	if len(c.Programs) == 0 {
		c.Programs = []string{"quartic", "rotsum"}
	}
	if c.Rates == (Rates{}) {
		c.Rates = DefaultRates()
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 250 * time.Millisecond
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

// Outcomes tallies verified submissions by how they ended: the classes the
// failure model allows (ok, shed, timeout, degraded) and the two it forbids
// (an untyped failure, a wrong decrypt). Both soaks' reports embed it.
type Outcomes struct {
	Requests int64 `json:"requests"`
	OK       int64 `json:"ok"`
	Shed     int64 `json:"shed"`     // ErrOverloaded (typed, retryable)
	Timeouts int64 `json:"timeouts"` // context deadline (typed)
	Degraded int64 `json:"degraded"` // cluster.ErrDegraded (typed)
	Failed   int64 `json:"failed"`   // anything untyped — an invariant violation

	WrongResults int64 `json:"wrong_results"` // responses that decrypted wrong

	FailureSamples []string `json:"failure_samples,omitempty"`
	samplesMu      sync.Mutex
}

// verifiedSubmit is the one way both soaks drive load: it returns a func
// that submits ct under timeout, decrypts a success and checks its worst
// slot error against want within tol, tallies the outcome into o, and
// reports whether it was a verified success.
func (o *Outcomes) verifiedSubmit(core *serve.Core, tenant string, timeout time.Duration, tol float64,
	decrypt func(*ckks.Ciphertext) ([]complex128, error), logf func(string, ...any),
) func(program string, ct *ckks.Ciphertext, want []complex128) bool {
	return func(program string, ct *ckks.Ciphertext, want []complex128) bool {
		atomic.AddInt64(&o.Requests, 1)
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		out, err := core.Submit(ctx, program, tenant, ct)
		cancel()
		switch {
		case err == nil:
			got, derr := decrypt(out)
			if derr != nil {
				atomic.AddInt64(&o.WrongResults, 1)
				return false
			}
			worst := 0.0
			for i := range got {
				worst = max(worst, cmplx.Abs(got[i]-want[i]))
			}
			if worst > tol {
				atomic.AddInt64(&o.WrongResults, 1)
				logf("WRONG RESULT: %s slot error %.2e", program, worst)
				return false
			}
			atomic.AddInt64(&o.OK, 1)
			return true
		case errors.Is(err, serve.ErrOverloaded):
			atomic.AddInt64(&o.Shed, 1)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			atomic.AddInt64(&o.Timeouts, 1)
		case errors.Is(err, cluster.ErrDegraded):
			atomic.AddInt64(&o.Degraded, 1)
		default:
			atomic.AddInt64(&o.Failed, 1)
			o.samplesMu.Lock()
			if len(o.FailureSamples) < 5 {
				o.FailureSamples = append(o.FailureSamples, err.Error())
			}
			o.samplesMu.Unlock()
		}
		return false
	}
}

// SoakReport is the measured outcome of one soak, against which the
// failure-model invariants are asserted (see Violations).
type SoakReport struct {
	Outcomes

	Faults      map[string]int64 `json:"faults_injected"`
	TotalFaults int64            `json:"total_faults"`

	CorruptFramesDetected int64 `json:"corrupt_frames_detected"`
	EmulatorFallbacks     int64 `json:"emulator_fallbacks"`
	Reconnects            int64 `json:"reconnects"`
	Panics                int64 `json:"panics"`
	CircuitOpens          int64 `json:"circuit_opens"`

	Recovered      bool          `json:"recovered"`
	RecoveryTime   time.Duration `json:"recovery_time_ns"`
	RecoveryBudget time.Duration `json:"recovery_budget_ns"`
	PostChaosOK    bool          `json:"post_chaos_ok"` // verified requests after recovery
}

// Violations checks the report against the three invariants of the
// failure model (plus the fault-coverage floor) and returns one line per
// breach; empty means the soak passed.
//
//  1. No response ever decrypts wrong: corruption is detected, not served.
//  2. Every injected fault resolves typed: retried, degraded-and-counted,
//     or shed — never an untyped error, never a panic.
//  3. After faults stop, the cluster returns to fully healthy within the
//     recovery budget, and verified traffic flows again.
func (r *SoakReport) Violations(minFaults int64, allKinds bool) []string {
	var v []string
	if r.WrongResults > 0 {
		v = append(v, fmt.Sprintf("invariant 1: %d responses decrypted wrong", r.WrongResults))
	}
	if r.Failed > 0 {
		v = append(v, fmt.Sprintf("invariant 2: %d requests failed with untyped errors: %v", r.Failed, r.FailureSamples))
	}
	if r.Panics > 0 {
		v = append(v, fmt.Sprintf("invariant 2: %d unhandled panics recovered by the serving layer", r.Panics))
	}
	if !r.Recovered {
		v = append(v, fmt.Sprintf("invariant 3: cluster not fully healthy %v after faults stopped", r.RecoveryBudget))
	}
	if !r.PostChaosOK {
		v = append(v, "invariant 3: post-chaos verified requests failed")
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

// soakInput is one precomputed request: a ciphertext and the slots its
// response must decrypt to (reference evaluation, local keyswitching).
type soakInput struct {
	program string
	ct      *ckks.Ciphertext
	want    []complex128
}

// RunSoak boots the full stack — workers, chaos-wrapped transports,
// cluster engine, serving core — drives verified load through the fault
// schedule, then asserts recovery. The returned report carries every
// counter the invariants are judged on; err is a harness failure (setup
// broke), not an invariant breach.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	cfg = cfg.withDefaults()
	corruptBase := cluster.CorruptFrames()

	// --- stack setup (chaos disabled) ---
	lit := workloads.ServeParamsLiteral(cfg.LogN, cfg.Levels, 20260805)
	var specs []workloads.ServeWorkload
	rotSet := map[int]bool{}
	for _, name := range cfg.Programs {
		spec, ok := workloads.ServeWorkloadByName(name)
		if !ok {
			return nil, fmt.Errorf("chaos: no serve workload %q", name)
		}
		specs = append(specs, spec)
		for _, k := range spec.Rotations {
			rotSet[k] = true
		}
	}
	reg, err := serve.NewRegistry(serve.RegistryConfig{Literal: lit, Programs: specs})
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
	var rots []int
	for k := range rotSet {
		rots = append(rots, k)
	}
	keys := map[string]*ckks.EvalKey{"rlk": rlk}
	var rtks *ckks.RotationKeySet
	if len(rots) > 0 {
		if rtks, err = kg.GenRotationKeySet(sk, rots, false); err != nil {
			return nil, err
		}
		for k, key := range rtks.Keys {
			keys[fmt.Sprintf("rot:%d", k)] = key
		}
	}
	const tenant = "chaos"
	if err := reg.RegisterTenant(tenant, keys); err != nil {
		return nil, err
	}

	inj := NewInjector(Config{Seed: cfg.Seed, Rates: cfg.Rates, DelayMin: cfg.DelayMin, DelayMax: cfg.DelayMax})
	dialers := make([]cluster.Dialer, cfg.Workers)
	for i := range dialers {
		w := cluster.NewWorker(params)
		w.PartialFrameTimeout = 2 * cfg.RPCTimeout
		dialers[i] = inj.WrapDialer(fmt.Sprintf("w%d", i), cluster.NewPipeDialer(w))
	}
	eng, err := cluster.NewEngine(params, dialers, cluster.Options{
		RPCTimeout:        cfg.RPCTimeout,
		DialTimeout:       2 * time.Second,
		RetryBackoff:      10 * time.Millisecond,
		HeartbeatInterval: cfg.Heartbeat,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: cluster startup: %w", err)
	}
	defer eng.Close()
	if err := eng.EnsureKeys(keysList(keys)...); err != nil {
		return nil, fmt.Errorf("chaos: key pre-push: %w", err)
	}

	core := serve.NewCore(reg, serve.Config{
		Workers:          2,
		AdmissionLimit:   64,
		RequestTimeout:   cfg.RequestTimeout,
		Backends:         []serve.BackendSpec{{Engine: eng}},
		CircuitThreshold: 5,
		CircuitCooldown:  250 * time.Millisecond,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		core.Close(ctx)
	}()

	// --- crypto plumbing + precomputed verified inputs ---
	var cryptoMu sync.Mutex
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk)
	decr := ckks.NewDecryptor(params, sk)
	refEv := ckks.NewEvaluator(params, rlk, rtks)
	rng := rand.New(rand.NewSource(cfg.Seed))

	decrypt := func(ct *ckks.Ciphertext) ([]complex128, error) {
		cryptoMu.Lock()
		defer cryptoMu.Unlock()
		pt, err := decr.Decrypt(ct)
		if err != nil {
			return nil, err
		}
		return enc.Decode(pt, params.Slots())
	}

	const inputsPerProgram = 4
	var inputs []soakInput
	for _, spec := range specs {
		for k := 0; k < inputsPerProgram; k++ {
			v := make([]complex128, params.Slots())
			for i := range v {
				v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			}
			cryptoMu.Lock()
			pt, err := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
			if err != nil {
				cryptoMu.Unlock()
				return nil, err
			}
			ct, err := encr.Encrypt(pt)
			if err != nil {
				cryptoMu.Unlock()
				return nil, err
			}
			ref, err := spec.Reference(refEv, enc, ct)
			cryptoMu.Unlock()
			if err != nil {
				return nil, err
			}
			want, err := decrypt(ref)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, soakInput{program: spec.Name, ct: ct, want: want})
		}
	}

	rep := &SoakReport{Faults: map[string]int64{}}
	submit := rep.verifiedSubmit(core, tenant, cfg.RequestTimeout, cfg.Tolerance, decrypt, cfg.Logf)
	runOne := func(in soakInput) bool { return submit(in.program, in.ct, in.want) }

	// --- warmup: one verified request per program, chaos off ---
	for _, spec := range specs {
		if !runOne(inputs[indexOf(specs, spec.Name)*inputsPerProgram]) {
			return rep, fmt.Errorf("chaos: warmup request for %q failed before any fault was injected", spec.Name)
		}
	}
	warm := atomic.LoadInt64(&rep.Requests)
	cfg.Logf("warmup ok (%d requests); enabling chaos for %v (seed %d)", warm, cfg.Duration, cfg.Seed)

	// --- chaos phase: closed-loop verified load under the schedule ---
	inj.SetEnabled(true)
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for g := 0; g < cfg.Concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gr := rand.New(rand.NewSource(cfg.Seed + int64(g) + 1))
			for time.Now().Before(deadline) {
				runOne(inputs[gr.Intn(len(inputs))])
			}
		}(g)
	}
	lastLog := time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		if time.Since(lastLog) >= 5*time.Second {
			lastLog = time.Now()
			cfg.Logf("t-%v: %d requests, %d faults", deadline.Sub(lastLog).Round(time.Second), atomic.LoadInt64(&rep.Requests), inj.Total())
		}
	}
	wg.Wait()
	inj.SetEnabled(false)

	// --- recovery: all workers healthy within the budget ---
	// Worst case after the last fault: one in-flight RPC burns its
	// deadline, the next heartbeat tick detects the poisoned session and
	// redials it in place. Budget = RPC drain + one heartbeat + dial slack.
	rep.RecoveryBudget = cfg.RPCTimeout + cfg.Heartbeat + 2*time.Second
	recoverStart := time.Now()
	for time.Since(recoverStart) < rep.RecoveryBudget {
		if eng.Healthy() {
			rep.Recovered = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep.RecoveryTime = time.Since(recoverStart)

	// Post-chaos: verified traffic must flow again (this also drives the
	// circuit breaker's probe if chaos left it open).
	rep.PostChaosOK = true
	for _, spec := range specs {
		ok := false
		for try := 0; try < 3 && !ok; try++ {
			ok = runOne(inputs[indexOf(specs, spec.Name)*inputsPerProgram])
		}
		rep.PostChaosOK = rep.PostChaosOK && ok
	}

	// --- counters ---
	for k, n := range inj.Counts() {
		rep.Faults[k.String()] = n
	}
	rep.TotalFaults = inj.Total()
	rep.CorruptFramesDetected = cluster.CorruptFrames() - corruptBase
	snap := core.Metrics().Snapshot()
	rep.EmulatorFallbacks = snap.EmulatorFallbacks
	rep.Panics = snap.Panics
	for _, b := range snap.Backends {
		rep.CircuitOpens += b.Opens
		rep.Reconnects += b.Cluster.Reconnects
	}
	cfg.Logf("chaos done: %d requests (%d ok, %d shed, %d timeout, %d degraded, %d failed), %d faults, %d corrupt frames detected, recovered in %v",
		rep.Requests, rep.OK, rep.Shed, rep.Timeouts, rep.Degraded, rep.Failed,
		rep.TotalFaults, rep.CorruptFramesDetected, rep.RecoveryTime.Round(time.Millisecond))
	return rep, nil
}

func keysList(m map[string]*ckks.EvalKey) []*ckks.EvalKey {
	out := make([]*ckks.EvalKey, 0, len(m))
	for _, k := range m {
		out = append(out, k)
	}
	return out
}

func indexOf(specs []workloads.ServeWorkload, name string) int {
	for i, s := range specs {
		if s.Name == name {
			return i
		}
	}
	return 0
}

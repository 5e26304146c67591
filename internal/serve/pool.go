package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/sched"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	ErrUnknownProgram = errors.New("serve: unknown program")
	ErrUnknownTenant  = errors.New("serve: unknown tenant (register evaluation keys first)")
	ErrMissingKeys    = errors.New("serve: tenant is missing required evaluation keys")
	ErrOverloaded     = errors.New("serve: overloaded, request shed")
	ErrShuttingDown   = errors.New("serve: shutting down")
	ErrBadRequest     = errors.New("serve: bad request")
	// ErrInternal marks a request that died to a recovered panic: the
	// request fails typed (500) while the worker, and every other request,
	// keeps serving.
	ErrInternal = errors.New("serve: internal error")
)

// Config tunes the serving core.
type Config struct {
	// Workers bounds how many executions — one-shots and session steps,
	// shallow or deep — run at once: every execution holds one slot, and the
	// rest of the admitted requests wait for one under their own deadlines.
	// A refresh bootstraps inside its run's slot, so Workers is also how many
	// bootstraps compute at once. Every limb loop below runs serially on its
	// request's goroutine, so these slots are the only compute concurrency
	// in the process: Workers above the core count adds time-slicing, not
	// throughput, and one request alone uses one core. A request that
	// expires mid-refresh gives up its slot at the bootstrap's next
	// collective when its keyswitches ride a cluster backend; on the local
	// kernel a bootstrap takes no context, so the slot is held until that
	// one bootstrap ends. Default GOMAXPROCS.
	Workers int
	// RequestTimeout bounds a request's total time in the system when its
	// context has no deadline of its own. Expiry is noticed waiting for a
	// slot, between program nodes, entering a refresh and at every cluster
	// collective — a refresh's included. Only a bootstrap on the local
	// kernel runs on past it: there a request can overrun by at most one
	// bootstrap. Default 10s.
	RequestTimeout time.Duration

	// AdmissionLimit bounds how many requests may be inside the core at
	// once (waiting for a worker slot or executing). Beyond it Submit sheds
	// immediately with ErrOverloaded, so overload produces fast 429s instead
	// of an unbounded goroutine pileup behind the worker slots. Default 1024.
	AdmissionLimit int

	// Backends executes requests' keyswitches over a set of
	// independently-dialed cluster engines (limb-partitioned keyswitching
	// across worker processes) — separate failure domains. Each backend
	// gets its own circuit breaker (CircuitThreshold/CircuitCooldown); a
	// request tries backends in health-ranked order and fails over on
	// error, ErrDegraded or an open circuit, counted in Metrics.Failovers.
	// When none can serve, the request re-runs once, from its original
	// input, with local keyswitching — counted in Metrics.EmulatorFallbacks —
	// unless RequireCluster is set. That replay is the only fallback in the
	// stack: a cluster.Engine never computes a keyswitch itself, it fails
	// the collective with ErrDegraded.
	// After a loss nothing here schedules recovery: the engine's heartbeat
	// redials its workers, one half-open probe per CircuitCooldown readmits
	// the backend, and keys reach a rejoined worker lazily.
	Backends []BackendSpec

	// SessionLog, when non-empty, is the path of the durable session
	// checkpoint log: an append-only CRC-framed record stream (the wire v2
	// codec discipline) snapshotting each session's serialized ciphertext
	// state and step counter after every step. On boot the log is replayed
	// — tolerating a truncated or corrupt tail and skipping TTL-expired
	// sessions — so a coordinator restart resumes in-flight sessions
	// bit-exactly. Use NewDurableCore to surface open/replay errors.
	SessionLog string

	// RequireCluster turns off the local replay — the one fallback there is:
	// when no backend can serve (a worker lost mid-run, degraded, or its
	// circuit open) requests fail typed with cluster.ErrDegraded (503) and no
	// keyswitch of theirs is ever computed on the coordinator — refreshes
	// included: a bootstrap's keyswitches ride the same backend as the rest
	// of its program. Useful when one process cannot keep up with the
	// cluster's capacity and fallback would just be a slower outage.
	RequireCluster bool

	// CircuitThreshold is how many consecutive failed cluster runs open a
	// backend's circuit breaker (half-open probes after CircuitCooldown).
	// Default 5.
	CircuitThreshold int
	// CircuitCooldown is how long an open circuit waits before admitting a
	// probe run. Default 5s.
	CircuitCooldown time.Duration

	// SessionTTL evicts encrypted sessions idle longer than this.
	// Default 5m.
	SessionTTL time.Duration
	// MaxSessions bounds live sessions; creation beyond it sheds with
	// ErrOverloaded. Default 1024.
	MaxSessions int

	// testPreRun, when non-nil, runs at the top of every execution, inside
	// its recovery point and its worker slot — a test lever: it parks on a
	// channel to hold slots, sleeps to model a slow backend, or panics to
	// exercise recovery.
	testPreRun func()
	// testInRefresh, when non-nil, runs inside refresh just before the
	// bootstrap and the func it returns runs as that refresh ends — the
	// tests' other lever: it brackets exactly one bootstrap, so a test can
	// see whose refreshes are in flight, park one there, or break a backend
	// under it.
	testInRefresh func(tenant string) (done func())
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.AdmissionLimit <= 0 {
		c.AdmissionLimit = 1024
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	return c
}

// Core is the serving runtime: registry + admission + worker slots +
// executor + metrics. There are no dispatch goroutines: every request runs
// on its caller's goroutine.
type Core struct {
	cfg Config
	reg *Registry
	met *Metrics

	// backends is the failure-domain layer over the configured cluster
	// engines (nil in local-only mode): per-backend circuit breakers and
	// health-ranked failover.
	backends *backendSet

	// admission bounds the requests concurrently inside the core (see
	// Config.AdmissionLimit); slots bounds the executions running at once
	// (see Config.Workers).
	admission chan struct{}
	slots     chan struct{}

	// stateMu orders enter against Close flipping draining: once draining
	// is set no new request can join inflight, so Close's wait observes
	// every admitted request.
	stateMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	sessions *sessionStore
}

// NewCore starts the serving core over an already-compiled registry. It
// panics if Config.SessionLog is set but cannot be opened or replayed —
// use NewDurableCore to handle that error.
func NewCore(reg *Registry, cfg Config) *Core {
	c, err := NewDurableCore(reg, cfg)
	if err != nil {
		panic(fmt.Sprintf("serve: %v", err))
	}
	return c
}

// NewDurableCore is NewCore returning the session-log open/replay error
// instead of panicking. With Config.SessionLog unset it never fails.
func NewDurableCore(reg *Registry, cfg Config) (*Core, error) {
	cfg = cfg.withDefaults()
	c := &Core{
		cfg:       cfg,
		reg:       reg,
		met:       newMetrics(reg.ProgramNames()),
		admission: make(chan struct{}, cfg.AdmissionLimit),
		slots:     make(chan struct{}, cfg.Workers),
	}
	if len(cfg.Backends) > 0 {
		c.backends = newBackendSet(cfg.Backends, c.met, cfg.CircuitThreshold, cfg.CircuitCooldown)
		c.met.backendsSource = c.backends.snapshots
		// A map leaving the key cache, once no run holds it, invalidates
		// worker residency on every backend (best-effort, off the serving
		// path): the cache is the one owner of what workers hold.
		reg.keys.onEvict = func(_ string, keys map[string]*ckks.EvalKey) {
			evs := make([]*ckks.EvalKey, 0, len(keys))
			for _, k := range keys {
				if k != nil {
					evs = append(evs, k)
				}
			}
			go func() {
				for _, b := range c.backends.all {
					b.eng.EvictKeys(evs...)
				}
			}()
		}
	}
	c.met.keyCacheSource = reg.KeyCacheStats
	c.sessions = newSessionStore(c, cfg.SessionTTL, cfg.MaxSessions)
	if cfg.SessionLog != "" {
		if err := c.sessions.enableLog(cfg.SessionLog); err != nil {
			c.sessions.close()
			return nil, fmt.Errorf("session log %s: %w", cfg.SessionLog, err)
		}
	}
	return c, nil
}

// Registry exposes the compiled program registry.
func (c *Core) Registry() *Registry { return c.reg }

// Metrics exposes the metrics surface.
func (c *Core) Metrics() *Metrics { return c.met }

// Health is the live state /healthz reports.
type Health struct {
	// OK is false when the core cannot currently serve: it is draining, or
	// every cluster backend is fully down and RequireCluster forbids the
	// local replay that would otherwise take their place.
	OK       bool `json:"ok"`
	Programs int  `json:"programs"`
	Draining bool `json:"draining"`
	Cluster  bool `json:"cluster"` // cluster mode configured

	// Backends enumerates every cluster backend: circuit state, opens
	// count, worker health and last-handshake age per failure domain.
	// Failovers counts primary switches.
	Backends  []BackendHealth `json:"backends,omitempty"`
	Failovers int64           `json:"failovers_total,omitempty"`

	// KeyCache summarizes the budgeted tenant-key tier: resident vs
	// spilled tenants, resident bytes against the budget, and the
	// hit/miss/eviction counters.
	KeyCache *KeyCacheStats `json:"key_cache,omitempty"`

	// Bootstrap reports the refresh service: enabled, the level circuits
	// resume at after a refresh, and the live encrypted-session count.
	Bootstrap          bool `json:"bootstrap"`
	BootstrapExitLevel int  `json:"bootstrap_exit_level,omitempty"`
	SessionsActive     int  `json:"sessions_active"`
	// SessionsRestored counts sessions replayed from the checkpoint log at
	// boot (nonzero only after a coordinator restart with durable sessions).
	SessionsRestored int64 `json:"session_restores_total,omitempty"`
}

// Health reports whether the core can serve right now. With RequireCluster,
// zero healthy workers across ALL failure domains means requests cannot
// succeed — /healthz then turns 503 so load balancers stop routing here. One
// backend down with another healthy stays OK: that is what failover is for;
// and without RequireCluster every backend down stays OK too, because
// requests then succeed through execute's local replay.
func (c *Core) Health() Health {
	h := Health{OK: true, Programs: len(c.reg.ProgramNames())}
	c.stateMu.RLock()
	h.Draining = c.draining
	c.stateMu.RUnlock()
	if c.backends != nil {
		h.Cluster = true
		h.Backends = c.backends.healthList()
		h.Failovers = c.met.Failovers.Load()
		totalHealthy := 0
		for _, bh := range h.Backends {
			totalHealthy += bh.Healthy
		}
		if totalHealthy == 0 && c.cfg.RequireCluster {
			h.OK = false
		}
	}
	h.SessionsRestored = c.met.SessionRestores.Load()
	kc := c.reg.KeyCacheStats()
	h.KeyCache = &kc
	if c.reg.Pre != nil {
		h.Bootstrap = true
		h.BootstrapExitLevel = c.reg.Pre.ExitLevel()
	}
	h.SessionsActive = c.SessionCount()
	if h.Draining {
		h.OK = false
	}
	return h
}

// enter admits one request into the core, or says why not: ErrShuttingDown
// once Close has begun, ErrOverloaded beyond AdmissionLimit — a typed error
// the HTTP layer turns into 429 + Retry-After instead of parking a goroutine
// behind saturated worker slots. An admitted request joins inflight under
// stateMu, so Close's drain cannot miss it; the caller defers leave.
func (c *Core) enter() error {
	c.stateMu.RLock()
	defer c.stateMu.RUnlock()
	if c.draining {
		c.met.Rejected.Add(1)
		return ErrShuttingDown
	}
	select {
	case c.admission <- struct{}{}:
	default:
		c.met.Rejected.Add(1)
		return fmt.Errorf("%w: admission queue full", ErrOverloaded)
	}
	c.inflight.Add(1)
	return nil
}

func (c *Core) leave() {
	<-c.admission
	c.inflight.Done()
}

// withTimeout applies Config.RequestTimeout to a context that carries no
// deadline of its own.
func (c *Core) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.cfg.RequestTimeout)
}

// Submit runs one encrypted request on the caller's goroutine and blocks
// until its response, its context deadline, or load shedding. The request
// ciphertext may arrive at any level from the program's InLevel up; it runs
// truncated to InLevel.
func (c *Core) Submit(ctx context.Context, program, tenant string, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	c.met.Received.Add(1)
	if err := c.enter(); err != nil {
		return nil, err
	}
	defer c.leave()
	prog, ok := c.reg.Program(program)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProgram, program)
	}
	// Admission validates against the tenant's always-resident key-name
	// metadata — never the decoded keys — so a spilled tenant does not
	// block here; its bundle is read back inside the worker slot (run).
	names, ok := c.reg.TenantKeyNames(tenant)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	if missing := prog.MissingKeyNames(names); len(missing) > 0 {
		return nil, fmt.Errorf("%w: %v", ErrMissingKeys, missing)
	}
	// A one-shot runs at its program's input level: a ciphertext above it
	// is cut down to a limb-prefix view (no limb is copied), one below it
	// lacks the levels the program consumes.
	if ct.Level() < prog.InLevel {
		return nil, fmt.Errorf("%w: ciphertext at level %d, program needs at least %d", ErrBadRequest, ct.Level(), prog.InLevel)
	}
	ct = ct.AtLevel(prog.InLevel)
	def := c.reg.Params.DefaultScale()
	if math.Abs(ct.Scale-def) > 1e-6*def {
		return nil, fmt.Errorf("%w: ciphertext scale %g, program expects %g", ErrBadRequest, ct.Scale, def)
	}
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()

	start := time.Now()
	out, err := c.run(ctx, prog, tenant, ct, true)
	if err != nil {
		err = fmt.Errorf("serve: executing %q: %w", prog.Spec.Name, err)
	}
	c.observe(ctx, c.met.programs[prog.Spec.Name], start, err)
	return out, err
}

// run is how every admitted request — one-shot or session step, shallow or
// deep — executes: it waits under ctx for one of the Workers slots (the wait
// shows in QueueDepth), loads the tenant's keys inside it, so a cold reload
// stalls only this request (a failed one has dropped the tenant), and
// executes. The slot is free again when run returns, and so is the run's
// hold on the keys: an eviction or re-registration in between reaches the
// workers only then.
func (c *Core) run(ctx context.Context, prog *Program, tenant string, ct *ckks.Ciphertext, oneShot bool) (*ckks.Ciphertext, error) {
	c.met.QueueDepth.Add(1)
	select {
	case c.slots <- struct{}{}:
		c.met.QueueDepth.Add(-1)
		defer func() { <-c.slots }()
	case <-ctx.Done():
		c.met.QueueDepth.Add(-1)
		return nil, fmt.Errorf("waiting for a worker slot: %w", ctx.Err())
	}
	keys, ok := c.reg.keys.acquire(tenant, prog.runKeys)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	defer c.reg.keys.release(keys)
	if oneShot {
		c.met.OneShots.Add(1)
	}
	return c.execute(ctx, prog, tenant, keys.m, ct)
}

// Close drains the runtime: no new requests are accepted and every admitted
// request — waiting for a worker slot or executing, refreshes included —
// runs to completion before the session store stops. It returns early with
// the context's error if draining exceeds the deadline.
func (c *Core) Close(ctx context.Context) error {
	c.stateMu.Lock()
	already := c.draining
	c.draining = true
	c.stateMu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		c.inflight.Wait()
		c.sessions.close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}

// observe is the one place a request's outcome reaches the counters:
// one-shots and session steps both report here. A request whose own context
// expired — waiting for a slot or mid-run — is a timeout, not an execution
// error.
func (c *Core) observe(ctx context.Context, pm *ProgramMetrics, start time.Time, err error) {
	switch {
	case err == nil:
		lat := time.Since(start)
		c.met.Completed.Add(1)
		c.met.Latency.Observe(lat)
		pm.Completed.Add(1)
		pm.Latency.Observe(lat)
	case ctx.Err() != nil:
		c.met.Timeouts.Add(1)
	default:
		c.met.Errors.Add(1)
		pm.Errors.Add(1)
	}
}

// execute is the serving executor — the only way a program runs here,
// whether a one-shot or a session step — and the request's one recovery
// point: a panic fails that request typed with ErrInternal and touches no
// other. It replays prog's graph on ct on one ckks.Evaluator over the
// tenant's keys — the request's only evaluator: mid-program refreshes
// bootstrap on it too (see refresh). With cluster backends every keyswitch,
// a bootstrap's included, rides the best-ranked healthy engine and a failed
// run fails over to the next failure domain. When no backend can serve, the
// run repeats with local keyswitching from the original input — counted in
// EmulatorFallbacks, bit-identical (same kernels, only locality changes) —
// unless RequireCluster turns fallback off.
func (c *Core) execute(ctx context.Context, prog *Program, tenant string, keys map[string]*ckks.EvalKey, ct *ckks.Ciphertext) (out *ckks.Ciphertext, err error) {
	defer func() {
		if p := recover(); p != nil {
			c.met.Panics.Add(1)
			out, err = nil, fmt.Errorf("%w: recovered panic executing %q: %v\n%s", ErrInternal, prog.Spec.Name, p, debug.Stack())
		}
	}()
	if c.cfg.testPreRun != nil {
		c.cfg.testPreRun()
	}
	// The evaluator holds keys and a KeySwitcher, no run state: a failed
	// attempt leaves nothing behind, so every attempt reuses it.
	ev := tenantEvaluator(c.reg.Params, keys)
	var opts sched.RunOpts
	if c.reg.Pre != nil {
		opts.Refresh = func(ctx context.Context, in *ckks.Ciphertext) (*ckks.Ciphertext, error) {
			return c.refresh(ctx, tenant, ev, in)
		}
	}
	if c.backends != nil {
		for _, b := range c.backends.ranked() {
			// Healthy() is the cheap gate, the breaker the stateful one:
			// after CircuitThreshold consecutive failures a backend isn't
			// even attempted until a cooldown-spaced probe succeeds, so a
			// flapping backend can't tax every run with RPC deadlines —
			// execution fails over to the next-ranked failure domain.
			if !b.eng.Healthy() || !b.brk.Allow() {
				continue
			}
			// Bind the request's context to its collectives: the HTTP
			// deadline clamps every per-worker RPC deadline and cancels
			// retries, all the way down the stack.
			ev.SetKeySwitcher(b.eng.Bound(ctx))
			out, err = prog.exec.Run(ctx, ev, ct, opts)
			if err == nil {
				c.backends.noteSuccess(b)
				return out, nil
			}
			if ctx.Err() != nil || requestCaused(err) {
				// The request's own deadline expired mid-run, or the run hit
				// a refresh its tenant's keys or this server cannot give it:
				// that is client evidence, not backend evidence — feeding it
				// to the breaker would let a burst of impatient or under-keyed
				// clients open a healthy backend's circuit. Another backend
				// would fail the same way, so there is no point trying one.
				return nil, err
			}
			b.brk.Failure()
		}
		if c.cfg.RequireCluster {
			return nil, fmt.Errorf("serve: no cluster backend available (primary circuit %s): %w",
				c.backends.primaryBackend().brk.State(), cluster.ErrDegraded)
		}
		// Every backend degraded or erroring: replay locally from the
		// original input.
		c.met.EmulatorFallbacks.Add(1)
		ev.SetKeySwitcher(nil)
	}
	return prog.exec.Run(ctx, ev, ct, opts)
}

// requestCaused reports whether a run failed on what the request brought —
// a tenant without the bootstrap circuit's keys, an input out of levels on
// a server with no refresh service, or a key no keyswitch plan covers (a
// worker's in-band refusal, which the local kernel would repeat) — and not
// on the backend that ran it.
func requestCaused(err error) bool {
	return errors.Is(err, ErrMissingKeys) || errors.Is(err, sched.ErrNoRefresh) || errors.Is(err, ckks.ErrNoKeySwitchPlan)
}

// refresh is the executor's refresh hook: one solo Bootstrap on the request's
// own goroutine and on ev, the evaluator its program is running on — same
// keys, same KeySwitcher, same request context — so a refresh's rotations
// and relinearizations go wherever the rest of the run's do, and a backend
// lost under it fails the attempt like any other keyswitch error. The
// circuit is bound only when a run actually exhausts its levels, so shallow
// programs never demand the bootstrap circuit's keys. Nothing serialises
// refreshes against each other: each is bounded by the worker slot its
// request already holds, so up to Workers run side by side. A request
// lacking the keys or already past its deadline pays for no bootstrap; only
// a completed bootstrap is counted.
func (c *Core) refresh(ctx context.Context, tenant string, ev *ckks.Evaluator, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bs, err := bindBootstrapper(c.reg.Pre, ev)
	if err != nil {
		return nil, err
	}
	if c.cfg.testInRefresh != nil {
		defer c.cfg.testInRefresh(tenant)()
	}
	start := time.Now()
	out, err := bs.Bootstrap(ct)
	if err != nil {
		return nil, err
	}
	c.met.ObserveBootstrap(time.Since(start))
	return out, nil
}

// validKeyName reports whether name follows the key-id convention: "rlk",
// "conj" or "rot:<k>" with k in canonical decimal (strconv.Itoa's form), so
// no two names of one bundle stand for the same key.
func validKeyName(name string) bool {
	if name == "rlk" || name == "conj" {
		return true
	}
	k, ok := strings.CutPrefix(name, "rot:")
	off, err := strconv.Atoi(k)
	return ok && err == nil && strconv.Itoa(off) == k
}

// tenantEvaluator builds an evaluator over a tenant's registered key set,
// parsing the "rlk"/"conj"/"rot:<k>" id convention into a RotationKeySet.
// RegisterTenant admits no other name (validKeyName).
func tenantEvaluator(params *ckks.Parameters, keys map[string]*ckks.EvalKey) *ckks.Evaluator {
	rtks := &ckks.RotationKeySet{Keys: map[int]*ckks.EvalKey{}}
	for id, key := range keys {
		if id == "conj" {
			rtks.Conj = key
		} else if k, ok := strings.CutPrefix(id, "rot:"); ok {
			off, _ := strconv.Atoi(k)
			rtks.Keys[off] = key
		}
	}
	return ckks.NewEvaluator(params, keys["rlk"], rtks)
}

// Command cinnamon-serve runs the encrypted-inference serving runtime
// over HTTP: it compiles the serve catalog at startup, then accepts
// marshaled CKKS ciphertexts from registered tenants, executes each on the
// library's CKKS evaluator under a bounded number of worker slots, and
// returns the encrypted results.
//
// Usage:
//
//	cinnamon-serve -addr :8080
//	cinnamon-serve -addr :8080 -logn 9 -levels 4 -workers 8 -queue 256
//	cinnamon-serve -addr :8080 -cluster localhost:9101,localhost:9102,localhost:9103
//	cinnamon-serve -addr :8080 -levels 16 -bootstrap
//
// With -bootstrap, the parameter set switches to a sparse secret (the
// serve bootstrap literal), the registry precompiles the shared bootstrap
// circuit, catalog programs deeper than the modulus chain are served with
// mid-program refreshes, and the encrypted session endpoints
// (/v1/sessions) are live. A refresh is one bootstrap on its request's own
// goroutine, inside the request's worker slot, on the evaluator the program
// is running on; nothing else bounds it, so up to -workers refreshes run
// side by side, each on one core.
//
// With -cluster, requests execute over the scale-out worker cluster
// (cinnamon-worker processes, one chip each): ciphertext limbs are
// partitioned across the workers and every keyswitch — a -bootstrap
// refresh's rotations and relinearizations included — runs the paper's
// network collectives. A collective that loses a worker fails typed; the
// request then fails over to the next backend or, when none can serve,
// replays once from its input with local keyswitching (counted in
// emulator_fallbacks) — unless -require-cluster, which turns that one
// fallback off: the request fails 503 and no keyswitch of it runs here.
//
// Semicolons split -cluster into independent backends (failure domains),
// each its own fully-dialed cluster behind its own circuit breaker;
// requests fail over between them and /healthz enumerates each:
//
//	cinnamon-serve -cluster "host1:9101,host1:9102;host2:9101,host2:9102" -require-cluster
//
// With -session-log, encrypted sessions checkpoint to an append-only
// CRC-framed log after every step and are replayed at boot, so a server
// restart resumes in-flight sessions bit-exactly (clients re-upload their
// key bundle — key material is not persisted — and retry the step).
//
// With -key-budget-mb, resident tenant evaluation keys are capped: a
// hard-budget LRU keeps the hot tenants decoded in RAM while colder
// bundles spill to a content-addressed CRC-framed key store
// (-key-spill-dir) and reload transparently, on the goroutine of the
// first request that needs them; warm tenants never touch the store.
// /metrics reports the tier under "key_cache".
//
// With -pprof, net/http/pprof is served on that address, on a listener of
// its own (off by default):
//
//	cinnamon-serve -addr :8080 -bootstrap -levels 16 -pprof 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// Endpoints (see internal/serve for the wire protocol):
//
//	GET  /healthz
//	GET  /metrics
//	GET  /v1/params
//	GET  /v1/programs
//	POST /v1/tenants/{tenant}/keys
//	POST /v1/programs/{name}:run      (X-Cinnamon-Tenant header)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cinnamon/internal/bootstrap"
	"cinnamon/internal/cluster"
	"cinnamon/internal/serve"
	"cinnamon/internal/telemetry"
	"cinnamon/internal/workloads"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	logN := flag.Int("logn", 8, "ring degree log2 (2^logN coefficients)")
	levels := flag.Int("levels", 4, "multiplicative levels (4 fits every one-shot catalog program; the deepest needs 3)")
	seed := flag.Int64("seed", 20260805, "parameter generation seed (clients must match)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "executions (one-shots and session steps) running at once, and so bootstraps: a refresh runs inside its request's slot; the rest of the admitted requests wait for a slot")
	queue := flag.Int("queue", 1024, "requests admitted at once, waiting or executing, before shedding with 429")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout (a request that expires mid-bootstrap overruns by at most that one bootstrap)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain deadline")
	clusterAddrs := flag.String("cluster", "", "cinnamon-worker addresses: comma-separated within a backend, semicolon-separated between backends (host:port,...;host:port,...); empty = local execution only")
	requireCluster := flag.Bool("require-cluster", false, "fail typed (503) instead of falling back to local execution when no cluster backend can serve")
	heartbeat := flag.Duration("heartbeat", 1*time.Second, "cluster worker heartbeat interval (redials back off with jitter)")
	sessionLog := flag.String("session-log", "", "durable session checkpoint log path; replayed at boot (empty = sessions are memory-only)")
	bootstrapOn := flag.Bool("bootstrap", false, "enable the bootstrapping service (sparse-secret parameters; serves deeper-than-chain programs and sessions)")
	sessionTTL := flag.Duration("session-ttl", 5*time.Minute, "idle encrypted-session eviction deadline")
	keyBudgetMB := flag.Int64("key-budget-mb", 0, "resident tenant eval-key budget in MiB (0 = unbounded); over budget, LRU tenants spill to the key store and reload on demand")
	keySpillDir := flag.String("key-spill-dir", "", "directory for spilled key bundles (empty = a fresh temp dir; only used with -key-budget-mb)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address, on its own listener (empty = no profiler)")
	flag.Parse()

	o := options{
		addr: *addr, logN: *logN, levels: *levels, seed: *seed,
		workers: *workers, queue: *queue, timeout: *timeout,
		drain: *drain, clusterAddrs: *clusterAddrs,
		requireCluster: *requireCluster, heartbeat: *heartbeat,
		sessionLog:  *sessionLog,
		bootstrap:   *bootstrapOn,
		sessionTTL:  *sessionTTL,
		keyBudgetMB: *keyBudgetMB, keySpillDir: *keySpillDir,
		pprofAddr: *pprofAddr,
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

type options struct {
	addr           string
	logN, levels   int
	seed           int64
	workers, queue int
	timeout, drain time.Duration
	clusterAddrs   string
	requireCluster bool
	heartbeat      time.Duration
	sessionLog     string
	bootstrap      bool
	sessionTTL     time.Duration
	keyBudgetMB    int64
	keySpillDir    string
	pprofAddr      string
}

func spillDirLabel(dir string) string {
	if dir == "" {
		return "a temp dir"
	}
	return dir
}

func run(o options) error {
	if o.pprofAddr != "" {
		at, err := telemetry.StartPprof(o.pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		log.Printf("profiler on http://%s/debug/pprof/", at)
	}
	lit := workloads.ServeParamsLiteral(o.logN, o.levels, o.seed)
	regCfg := serve.RegistryConfig{
		Literal:        lit,
		KeyBudgetBytes: o.keyBudgetMB << 20,
		KeySpillDir:    o.keySpillDir,
	}
	if o.keyBudgetMB > 0 {
		log.Printf("tenant key budget: %d MiB resident, spilling to %s", o.keyBudgetMB, spillDirLabel(o.keySpillDir))
	}
	if o.bootstrap {
		// The sparse-secret literal: same chain, HammingWeight set so the
		// bootstrap EvalMod interval bound holds. Clients rebuild it from
		// GET /v1/params like any other parameter set.
		regCfg.Literal = workloads.ServeBootstrapParamsLiteral(o.logN, o.levels, o.seed)
		cfg := bootstrap.DefaultConfig()
		regCfg.Bootstrap = &cfg
	}
	log.Printf("compiling serve catalog (logN=%d levels=%d seed=%d bootstrap=%v)...", o.logN, o.levels, o.seed, o.bootstrap)
	start := time.Now()
	reg, err := serve.NewRegistry(regCfg)
	if err != nil {
		return err
	}
	for _, name := range reg.ProgramNames() {
		p, _ := reg.Program(name)
		if p.Bootstrapped {
			log.Printf("  program %-8s %d bootstraps/run, keys=%d, outLevel=%d", name, p.BootstrapsRequired, len(p.RequiredKeys), p.OutLevel)
			continue
		}
		log.Printf("  program %-8s keys=%v outLevel=%d", name, p.RequiredKeys, p.OutLevel)
	}
	for _, reason := range reg.Skipped {
		log.Printf("  skipped %s (raise -levels/-logn to serve it)", reason)
	}
	if reg.Pre != nil {
		log.Printf("bootstrap service: circuit consumes %d levels, exit level %d", reg.Pre.Consumed(), reg.Pre.ExitLevel())
	}
	log.Printf("catalog ready in %v", time.Since(start).Round(time.Millisecond))

	var backends []serve.BackendSpec
	if o.clusterAddrs != "" {
		groups := strings.Split(o.clusterAddrs, ";")
		// Multiple failure domains: a restart must come up even while one
		// domain is entirely dead (its links stay down until the heartbeat
		// loop redials them).
		engOpts := cluster.Options{HeartbeatInterval: o.heartbeat, AllowDegradedStart: len(groups) > 1}
		for gi, group := range groups {
			var dialers []cluster.Dialer
			for _, a := range strings.Split(group, ",") {
				if a = strings.TrimSpace(a); a != "" {
					dialers = append(dialers, cluster.TCPDialer{Addr: a})
				}
			}
			if len(dialers) == 0 {
				return fmt.Errorf("-cluster backend %d has no worker addresses in %q", gi, group)
			}
			name := fmt.Sprintf("c%d", gi)
			log.Printf("connecting backend %s: %d cluster workers...", name, len(dialers))
			eng, err := cluster.NewEngine(reg.Params, dialers, engOpts)
			if err != nil {
				return fmt.Errorf("cluster backend %s startup: %w", name, err)
			}
			defer eng.Close()
			log.Printf("backend %s up: %d workers, limb partition chip=j%%%d", name, eng.NChips(), eng.NChips())
			backends = append(backends, serve.BackendSpec{Name: name, Engine: eng})
		}
	}

	core, err := serve.NewDurableCore(reg, serve.Config{
		Workers:        o.workers,
		AdmissionLimit: o.queue,
		RequestTimeout: o.timeout,
		Backends:       backends,
		RequireCluster: o.requireCluster,
		SessionLog:     o.sessionLog,
		SessionTTL:     o.sessionTTL,
	})
	if err != nil {
		return err
	}
	if o.sessionLog != "" {
		if n := core.Metrics().Snapshot().SessionRestores; n > 0 {
			log.Printf("session log %s: restored %d session(s)", o.sessionLog, n)
		} else {
			log.Printf("session log %s: no sessions to restore", o.sessionLog)
		}
	}

	srv := &http.Server{Addr: o.addr, Handler: serve.NewHandler(core, serve.HandlerConfig{})}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on %s", o.addr)
		errCh <- srv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		log.Printf("%v: draining (deadline %v)...", sig, o.drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	// Stop accepting new connections first, then drain admitted requests.
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if err := core.Close(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	snap := core.Metrics().Snapshot()
	log.Printf("done: %d completed, %d rejected, %d errors", snap.Completed, snap.Rejected, snap.Errors)
	return nil
}

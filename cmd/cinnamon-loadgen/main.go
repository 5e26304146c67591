// Command cinnamon-loadgen drives a cinnamon-serve instance with an
// open-loop Poisson arrival process: it discovers the server's CKKS
// parameters, generates and uploads a tenant key bundle, then fires
// encrypted requests at a fixed offered rate regardless of response
// latency (so queueing delay shows up in the measured latencies instead
// of being hidden by client back-pressure). Every response is decrypted
// and checked against the program's plaintext model (EvalPlain).
//
// Usage:
//
//	cinnamon-loadgen -url http://localhost:8080 -requests 200 -rate 50
//	cinnamon-loadgen -url http://localhost:8080 -program square -rate 100 -seed 7
//
// Session mode (-sessions > 0) exercises the encrypted-session API
// instead of the open loop: each session seeds the server with one
// encrypted input and then iterates the program server-side, decrypting
// and verifying every step against the iterated plaintext reference:
//
//	cinnamon-loadgen -url http://localhost:8080 -program logreg16-deep -sessions 2 -session-steps 3
//
// Many-tenant churn mode (-tenants > 1) registers N tenants, each with
// its own key bundle, and draws the sending tenant per request — Zipf by
// default, so a hot head stays warm while the tail churns through the
// server's budgeted key cache:
//
//	cinnamon-loadgen -url http://localhost:8080 -tenants 8 -tenant-skew zipf -requests 200
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/serve"
	"cinnamon/internal/workloads"
)

func main() {
	url := flag.String("url", "http://localhost:8080", "server base URL")
	tenant := flag.String("tenant", "loadgen", "tenant id to register and send as (many-tenant mode appends -0..N-1)")
	tenants := flag.Int("tenants", 1, "many-tenant churn mode: register this many tenants, each with its own key bundle, and spread the open loop across them")
	tenantSkew := flag.String("tenant-skew", "zipf", "tenant draw distribution in many-tenant mode: zipf (hot head, long cold tail) or uniform")
	program := flag.String("program", "all", "program name, or \"all\" to round-robin the catalog")
	requests := flag.Int("requests", 200, "total requests to send")
	rate := flag.Float64("rate", 50, "offered load, requests/sec (Poisson arrivals)")
	seed := flag.Int64("seed", 1, "load generator RNG seed")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	verify := flag.Bool("verify", true, "decrypt responses and compare to the program's plaintext model (EvalPlain)")
	maxSlotErr := flag.Float64("max-slot-err", 0, "slot-error bound for programs without a server-advertised verify_tolerance (0 = report only for those); programs that advertise one are always checked against it")
	maxErrorRate := flag.Float64("max-error-rate", -1, "exit 1 if the error fraction (transport failures + unexpected statuses, shed excluded) exceeds this (negative = report only)")
	sessions := flag.Int("sessions", 0, "session mode: open this many encrypted sessions instead of the open loop")
	sessionSteps := flag.Int("session-steps", 3, "steps per session (step 1 seeds the state, later steps iterate it server-side)")
	stepRetries := flag.Int("step-retries", 8, "session mode: retries per step on 5xx/429/connection reset (0 disables)")
	stepBackoff := flag.Duration("step-backoff", 100*time.Millisecond, "session mode: initial retry backoff (doubles, capped at 2s)")
	stepInterval := flag.Duration("step-interval", 0, "session mode: client-side pause between steps (models an iterative client; gives chaos scripts a window to restart the server mid-session)")
	flag.Parse()

	if err := run(*url, *tenant, *program, *tenants, *tenantSkew, *requests, *rate, *seed, *timeout, *verify, *maxSlotErr, *maxErrorRate, *sessions, *sessionSteps, *stepRetries, *stepBackoff, *stepInterval); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

type client struct {
	base   string
	tenant string
	http   *http.Client
	params *ckks.Parameters

	// Key material and encoders are stateful (samplers), so every
	// encrypt/decrypt call serializes on mu. The HTTP wait is
	// outside the lock, so requests still overlap on the wire.
	mu   sync.Mutex
	enc  *ckks.Encoder
	encr *ckks.Encryptor
	decr *ckks.Decryptor

	// bundle is the serialized key bundle as uploaded, kept so a 403 after
	// a server restart (in-memory tenant registry gone, durable sessions
	// kept) can re-register the SAME keys — regenerating would orphan
	// every ciphertext the server still holds.
	bundle []byte
}

type result struct {
	ok        bool
	status    int
	latency   time.Duration
	program   string
	slotErr   float64
	tol       float64 // effective verification tolerance (0 = report only)
	transport error
}

func run(base, tenant, program string, tenants int, tenantSkew string, requests int, rate float64, seed int64, timeout time.Duration, verify bool, maxSlotErr, maxErrorRate float64, sessions, sessionSteps, stepRetries int, stepBackoff, stepInterval time.Duration) error {
	c := &client{base: base, tenant: tenant, http: &http.Client{Timeout: timeout}}

	// Discover parameters and rebuild an identical set locally.
	var lit ckks.ParametersLiteral
	if err := c.getJSON("/v1/params", &lit); err != nil {
		return fmt.Errorf("fetching params: %w", err)
	}
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return fmt.Errorf("rebuilding params: %w", err)
	}
	c.params = params
	fmt.Printf("server params: N=%d, %d levels, scale 2^%d\n", params.N(), params.MaxLevel(), lit.LogScale)

	var infos []serve.ProgramInfo
	if err := c.getJSON("/v1/programs", &infos); err != nil {
		return fmt.Errorf("fetching programs: %w", err)
	}
	var targets []serve.ProgramInfo
	for _, info := range infos {
		if program == "all" || info.Name == program {
			targets = append(targets, info)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("no program %q on the server (have %d programs)", program, len(infos))
	}
	// Each target's plaintext model, resolved once: building the local
	// catalog recompiles its tensor models. A program the catalog lacks
	// has no entry and cannot be verified.
	specs := map[string]*workloads.ServeWorkload{}
	catalog := workloads.ServeWorkloads()
	for i := range catalog {
		for _, info := range targets {
			if catalog[i].Name == info.Name {
				specs[info.Name] = &catalog[i]
			}
		}
	}

	// Many-tenant churn mode: N tenants, each with its own key bundle, with
	// the open loop drawing the sending tenant per request. One generator
	// serves every tenant: a generator is seeded from the public parameter
	// seed, so each tenant drawing from a fresh one would get the same
	// secret, and the same bundle, as every other. A Zipf draw gives a hot
	// head and a long cold tail — the shape that exercises a budgeted
	// server-side key cache (hot tenants stay resident, tail tenants churn
	// through spill and reload).
	kg := ckks.NewKeyGenerator(params)
	clients := []*client{c}
	if tenants > 1 {
		if sessions > 0 {
			return fmt.Errorf("many-tenant mode (-tenants %d) is open-loop only; use -sessions with a single tenant", tenants)
		}
		if tenantSkew != "zipf" && tenantSkew != "uniform" {
			return fmt.Errorf("unknown -tenant-skew %q (want zipf or uniform)", tenantSkew)
		}
		clients = make([]*client, tenants)
		for i := range clients {
			cl := &client{base: base, tenant: fmt.Sprintf("%s-%d", tenant, i), http: c.http, params: params}
			if err := cl.keygenAndRegister(kg, targets); err != nil {
				return fmt.Errorf("tenant %s: %w", cl.tenant, err)
			}
			clients[i] = cl
		}
	} else if err := c.keygenAndRegister(kg, targets); err != nil {
		return err
	}

	if sessions > 0 {
		if program == "all" || len(targets) != 1 {
			return fmt.Errorf("session mode needs -program naming one program")
		}
		return c.runSessions(targets[0], specs[targets[0].Name], sessions, sessionSteps, seed, maxSlotErr, stepRetries, stepBackoff, stepInterval)
	}

	// Open loop: arrivals are scheduled by a Poisson process from the
	// seeded RNG; each request runs in its own goroutine so a slow server
	// cannot slow the arrival process down.
	arrivals := rand.New(rand.NewSource(seed))
	payloads := rand.New(rand.NewSource(seed + 1))
	tenantRng := rand.New(rand.NewSource(seed + 2))
	var zipf *rand.Zipf
	if len(clients) > 1 && tenantSkew == "zipf" {
		// Exponent 1.2 over ranks 0..N-1: tenant 0 dominates, the tail is
		// touched rarely enough to go cold under a tight key budget.
		zipf = rand.NewZipf(tenantRng, 1.2, 1, uint64(len(clients)-1))
	}
	perTenant := make([]int, len(clients))
	results := make([]result, requests)
	var wg sync.WaitGroup
	fmt.Printf("sending %d requests at %.0f req/s across %d program(s), %d tenant(s)...\n", requests, rate, len(targets), len(clients))
	start := time.Now()
	for i := 0; i < requests; i++ {
		if rate > 0 {
			time.Sleep(time.Duration(arrivals.ExpFloat64() / rate * float64(time.Second)))
		}
		ti := 0
		if len(clients) > 1 {
			if zipf != nil {
				ti = int(zipf.Uint64())
			} else {
				ti = tenantRng.Intn(len(clients))
			}
		}
		cl := clients[ti]
		info := targets[i%len(targets)]
		payloadSeed := payloads.Int63()
		// Per-program verification tolerance: the server-advertised bound
		// wins (deep tensor circuits accumulate more noise than the toy
		// kernels); -max-slot-err covers programs that advertise none.
		tol := info.VerifyTolerance
		if tol <= 0 {
			tol = maxSlotErr
		}
		perTenant[ti]++
		wg.Add(1)
		go func(i int, cl *client, info serve.ProgramInfo, spec *workloads.ServeWorkload, tol float64) {
			defer wg.Done()
			results[i] = cl.fire(info, spec, payloadSeed, verify, tol)
		}(i, cl, info, specs[info.Name], tol)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := report(results, elapsed)

	var snap serve.Snapshot
	if err := c.getJSON("/metrics", &snap); err != nil {
		return fmt.Errorf("fetching metrics: %w", err)
	}
	fmt.Printf("\nserver metrics: %d completed, %d rejected, %d timeouts, %d errors\n",
		snap.Completed, snap.Rejected, snap.Timeouts, snap.Errors)
	fmt.Printf("  server-side latency: p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
		snap.Latency.P50Ms, snap.Latency.P95Ms, snap.Latency.P99Ms)
	if cl := snap.Cluster; cl != nil {
		fmt.Printf("  cluster: %d/%d workers healthy, %d broadcasts, %.1f MB sent, %d local fallbacks\n",
			cl.Healthy, cl.Workers, cl.Broadcasts, float64(cl.BytesSent)/1e6, snap.EmulatorFallbacks)
	}
	if kc := snap.KeyCache; kc != nil {
		fmt.Printf("  key cache: %d resident + %d spilled tenants, %.1f MB resident (budget %.1f MB), %d hits, %d misses, %d evictions, %d admissions declined, %d cold-miss stalls, %.1f MB spill read\n",
			kc.ResidentTenants, kc.SpilledTenants, float64(kc.ResidentBytes)/1e6, float64(kc.BudgetBytes)/1e6,
			kc.Hits, kc.Misses, kc.Evictions, kc.AdmissionsDeclined, kc.ColdMissStalls, float64(kc.SpillBytesRead)/1e6)
	}
	if len(clients) > 1 {
		fmt.Printf("tenant draws (%s):", tenantSkew)
		for i, n := range perTenant {
			fmt.Printf(" %s=%d", clients[i].tenant, n)
		}
		fmt.Println()
	}
	if maxSlotErr > 0 && rep.errors > 0 {
		return fmt.Errorf("verification: %d requests failed outright", rep.errors)
	}
	if len(rep.violations) > 0 {
		return fmt.Errorf("verification: %d responses exceeded their slot-error tolerance (worst: %s at %.2e)",
			len(rep.violations), rep.violations[0].program, rep.violations[0].slotErr)
	}
	if maxErrorRate >= 0 && len(results) > 0 {
		if rate := float64(rep.errors) / float64(len(results)); rate > maxErrorRate {
			return fmt.Errorf("error rate %.4f (%d/%d) exceeds -max-error-rate %.4f",
				rate, rep.errors, len(results), maxErrorRate)
		}
	}
	return nil
}

// stepOutcome is one :step exchange after retries settled.
type stepOutcome struct {
	out     *ckks.Ciphertext
	steps   int // server-reported cumulative step counter
	level   string
	retries int // attempts beyond the first (0 = clean)
}

// retryableStatus: backpressure and server-side failures worth retrying —
// the session survives a 5xx (the step failed or the coordinator
// restarted over its durable log), so a bounded retry rides out failover
// windows and restarts.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// stepWithRetry posts one :step with bounded exponential backoff.
// Connection resets and retryable statuses back off and retry; a 403
// (server restarted: in-memory tenant registry gone, durable session
// kept) re-uploads the original key bundle first. body is replayed
// verbatim on every attempt; nil means iterate the held state.
func (c *client) stepWithRetry(id string, body []byte, maxRetries int, backoff time.Duration) (stepOutcome, error) {
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	var oc stepOutcome
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > maxRetries {
				return oc, fmt.Errorf("step gave up after %d retries: %w", maxRetries, lastErr)
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			oc.retries++
		}
		var payload io.Reader
		if body != nil {
			payload = bytes.NewReader(body)
		}
		req, err := http.NewRequest("POST", c.base+"/v1/sessions/"+id+":step", payload)
		if err != nil {
			return oc, err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = err // connection reset / refused mid-restart
			continue
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			out, err := ckks.ReadCiphertext(resp.Body, c.params)
			resp.Body.Close()
			if err != nil {
				lastErr = fmt.Errorf("response ciphertext: %w", err)
				continue
			}
			oc.out = out
			oc.level = resp.Header.Get("X-Cinnamon-State-Level")
			fmt.Sscanf(resp.Header.Get("X-Cinnamon-Session-Steps"), "%d", &oc.steps)
			return oc, nil
		case resp.StatusCode == http.StatusForbidden:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("%s (re-registering keys)", resp.Status)
			if err := c.registerKeys(); err != nil {
				lastErr = fmt.Errorf("re-registering keys: %w", err)
			}
		case retryableStatus(resp.StatusCode):
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
		default:
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return oc, fmt.Errorf("%s: %s", resp.Status, msg)
		}
	}
}

// runSessions drives the encrypted-session API: create, seed with one
// encrypted input, iterate server-side, decrypt-and-verify every step
// against the iterated plaintext reference, close. Steps that hit a
// failover window or a coordinator restart are retried with bounded
// backoff and their verification is reported separately (a resumed
// session must verify exactly like an uninterrupted one). Any violation
// or exhausted step exits nonzero.
func (c *client) runSessions(info serve.ProgramInfo, spec *workloads.ServeWorkload, sessions, steps int, seed int64, maxSlotErr float64, stepRetries int, stepBackoff, stepInterval time.Duration) error {
	if spec == nil {
		return fmt.Errorf("session mode needs a plaintext reference for %q: not in the local catalog", info.Name)
	}
	tol := info.VerifyTolerance
	if tol <= 0 {
		tol = maxSlotErr
	}
	fmt.Printf("running %d session(s) of %q, %d steps each (tol %.1e, %d retries/step)...\n", sessions, info.Name, steps, tol, stepRetries)
	violations := 0
	resumedSteps, resumedViolations := 0, 0
	for s := 0; s < sessions; s++ {
		rng := rand.New(rand.NewSource(seed + int64(s)))
		var v []complex128
		if spec.MakeInput != nil {
			v = spec.MakeInput(rng, c.params.Slots())
		} else {
			v = make([]complex128, c.params.Slots())
			for i := range v {
				v[i] = complex(rng.Float64()*2-1, 0)
			}
		}

		var created serve.SessionInfo
		body, _ := json.Marshal(map[string]string{"tenant": c.tenant, "program": info.Name})
		resp, err := c.http.Post(c.base+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("session create: %w", err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("session create: %s: %s", resp.Status, msg)
		}
		if err := json.Unmarshal(msg, &created); err != nil {
			return fmt.Errorf("session create: %w", err)
		}

		c.mu.Lock()
		var ct *ckks.Ciphertext
		pt, err := c.enc.Encode(v, c.params.MaxLevel(), c.params.DefaultScale())
		if err == nil {
			ct, err = c.encr.Encrypt(pt)
		}
		c.mu.Unlock()
		if err != nil {
			return fmt.Errorf("session %d: encrypt: %w", s, err)
		}

		var seedBody bytes.Buffer
		if err := ct.Write(&seedBody); err != nil {
			return err
		}
		ref := v
		refSteps := 0
		for step := 1; step <= steps; step++ {
			if step > 1 && stepInterval > 0 {
				time.Sleep(stepInterval)
			}
			// Step 1 seeds the state; later steps send an empty body to
			// iterate the ciphertext the server already holds.
			var body []byte
			if step == 1 {
				body = seedBody.Bytes()
			}
			t0 := time.Now()
			oc, err := c.stepWithRetry(created.ID, body, stepRetries, stepBackoff)
			if err != nil {
				return fmt.Errorf("session %d step %d: %w", s, step, err)
			}
			// Reconcile the reference with the server's cumulative step
			// counter: a retried step may have executed server-side before
			// its response was lost, so the held state can be ahead of the
			// client's loop index. A seeded step (re)sets the state to one
			// application of the input regardless of how often it retried;
			// an empty-body step applies the program once per server-side
			// execution.
			if body != nil {
				ref = spec.EvalPlain(v)
				refSteps = oc.steps
			} else {
				for ; refSteps < oc.steps; refSteps++ {
					ref = spec.EvalPlain(ref)
				}
			}
			c.mu.Lock()
			got, err := c.decode(oc.out)
			c.mu.Unlock()
			if err != nil {
				return fmt.Errorf("session %d step %d: decrypt: %w", s, step, err)
			}
			var worst float64
			for i := range got {
				if e := cmplx.Abs(got[i] - ref[i]); e > worst {
					worst = e
				}
			}
			status := "ok"
			if tol > 0 && worst > tol {
				status = "VIOLATION"
				violations++
			}
			if oc.retries > 0 {
				resumedSteps++
				if status == "VIOLATION" {
					resumedViolations++
				}
				status += fmt.Sprintf(", resumed after %d retries", oc.retries)
			}
			fmt.Printf("  session %d step %d: level %s, slot err %.2e (%s, %v)\n",
				s, step, oc.level, worst, status, time.Since(t0).Round(time.Millisecond))
		}
		req, _ := http.NewRequest("DELETE", c.base+"/v1/sessions/"+created.ID, nil)
		if resp, err := c.http.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	var snap serve.Snapshot
	if err := c.getJSON("/metrics", &snap); err != nil {
		return fmt.Errorf("fetching metrics: %w", err)
	}
	fmt.Printf("\nserver metrics: %d session steps, %d bootstraps\n", snap.SessionSteps, snap.Bootstraps)
	if snap.BootstrapMs != nil {
		fmt.Printf("  bootstrap: p50 %.0fms  p99 %.0fms\n", snap.BootstrapMs.P50Ms, snap.BootstrapMs.P99Ms)
	}
	if snap.Failovers > 0 || snap.SessionRestores > 0 {
		fmt.Printf("  failure domains: %d failovers, %d sessions restored from checkpoint log\n", snap.Failovers, snap.SessionRestores)
	}
	// Resumed-step verification is the durability headline: steps that
	// rode out a failover or restart must decrypt exactly as clean ones.
	if resumedSteps > 0 {
		fmt.Printf("resumed-step verification: %d steps recovered after retries, %d violations\n", resumedSteps, resumedViolations)
	}
	if violations > 0 {
		return fmt.Errorf("verification: %d session steps exceeded tolerance %.1e (%d on resumed steps)", violations, tol, resumedViolations)
	}
	return nil
}

// keygenAndRegister draws a fresh tenant key set from kg, covering every
// key the target programs require, and uploads it.
func (c *client) keygenAndRegister(kg *ckks.KeyGenerator, targets []serve.ProgramInfo) error {
	rotSet := map[int]bool{}
	needConj := false
	for _, info := range targets {
		for _, id := range info.RequiredKeys {
			var k int
			if _, err := fmt.Sscanf(id, "rot:%d", &k); err == nil {
				rotSet[k] = true
			} else if id == "conj" {
				needConj = true
			}
		}
	}
	rots := make([]int, 0, len(rotSet))
	for k := range rotSet {
		rots = append(rots, k)
	}
	sort.Ints(rots)

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
	rtks, err := kg.GenRotationKeySet(sk, rots, needConj)
	if err != nil {
		return err
	}
	keys := map[string]*ckks.EvalKey{"rlk": rlk}
	for k, key := range rtks.Keys {
		keys[fmt.Sprintf("rot:%d", k)] = key
	}
	if rtks.Conj != nil {
		keys["conj"] = rtks.Conj
	}

	c.enc = ckks.NewEncoder(c.params)
	c.encr = ckks.NewEncryptor(c.params, pk)
	c.decr = ckks.NewDecryptor(c.params, sk)

	var bundle bytes.Buffer
	if err := serve.WriteKeyBundle(&bundle, keys); err != nil {
		return err
	}
	c.bundle = bundle.Bytes()
	if err := c.registerKeys(); err != nil {
		return err
	}
	fmt.Printf("registered tenant %q with %d evaluation keys (%.1f MB)\n",
		c.tenant, len(keys), float64(len(c.bundle))/1e6)
	return nil
}

// registerKeys uploads the stored key bundle. Uploading it again replaces
// the tenant's keys with the same material, so a re-upload after a server
// restart restores the tenant.
func (c *client) registerKeys() error {
	resp, err := c.http.Post(c.base+"/v1/tenants/"+c.tenant+"/keys", "application/octet-stream", bytes.NewReader(c.bundle))
	if err != nil {
		return fmt.Errorf("registering keys: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("registering keys: %s: %s", resp.Status, msg)
	}
	return nil
}

// fire sends one encrypted request and (optionally) verifies the
// decrypted response against the catalog's plaintext model (EvalPlain): no
// crypto in the ground truth. spec is nil for a program the local catalog
// lacks.
func (c *client) fire(info serve.ProgramInfo, spec *workloads.ServeWorkload, seed int64, verify bool, tol float64) result {
	rng := rand.New(rand.NewSource(seed))
	var v []complex128
	if spec != nil && spec.MakeInput != nil {
		// Programs with packing requirements (replicated block layouts)
		// draw a well-formed input instead of slot noise.
		v = spec.MakeInput(rng, c.params.Slots())
	} else {
		v = make([]complex128, c.params.Slots())
		for i := range v {
			v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
	}

	c.mu.Lock()
	pt, err := c.enc.Encode(v, c.params.MaxLevel(), c.params.DefaultScale())
	if err != nil {
		c.mu.Unlock()
		return result{transport: err}
	}
	ct, err := c.encr.Encrypt(pt)
	c.mu.Unlock()
	if err != nil {
		return result{transport: err}
	}

	var body bytes.Buffer
	if err := ct.Write(&body); err != nil {
		return result{transport: err}
	}
	req, err := http.NewRequest("POST", c.base+"/v1/programs/"+info.Name+":run", &body)
	if err != nil {
		return result{transport: err}
	}
	req.Header.Set("X-Cinnamon-Tenant", c.tenant)

	t0 := time.Now()
	resp, err := c.http.Do(req)
	latency := time.Since(t0)
	if err != nil {
		return result{transport: err, latency: latency}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return result{status: resp.StatusCode, latency: latency}
	}
	out, err := ckks.ReadCiphertext(resp.Body, c.params)
	if err != nil {
		return result{transport: fmt.Errorf("response ciphertext: %w", err), latency: latency}
	}

	res := result{ok: true, status: resp.StatusCode, latency: latency, program: info.Name, tol: tol}
	if verify {
		if spec == nil {
			res.transport = fmt.Errorf("no local reference for %q", info.Name)
			res.ok = false
			return res
		}
		ref := spec.EvalPlain(v)
		c.mu.Lock()
		defer c.mu.Unlock()
		got, err := c.decode(out)
		if err != nil {
			res.transport, res.ok = err, false
			return res
		}
		for i := range got {
			if e := cmplx.Abs(got[i] - ref[i]); e > res.slotErr {
				res.slotErr = e
			}
		}
	}
	return res
}

// decode decrypts and decodes; the caller holds c.mu.
func (c *client) decode(ct *ckks.Ciphertext) ([]complex128, error) {
	pt, err := c.decr.Decrypt(ct)
	if err != nil {
		return nil, err
	}
	return c.enc.Decode(pt, c.params.Slots())
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// reportSummary buckets the run's outcomes. Latency quantiles are
// computed over successful responses only; sheds (429/503 backpressure)
// and errors (transport failures, unexpected statuses) are counted in
// their own buckets so a failing server cannot skew — or fabricate — the
// latency distribution.
type reportSummary struct {
	ok       int
	shed     int
	errors   int // transport failures + unexpected HTTP statuses
	worstErr float64
	// violations are verified responses whose slot error exceeded their
	// per-program tolerance, worst first.
	violations []result
}

func report(results []result, elapsed time.Duration) reportSummary {
	var rep reportSummary
	var lats []time.Duration
	errTransport, errHTTP := 0, map[int]int{}
	perProg := map[string]*result{}
	for i, r := range results {
		switch {
		case r.ok:
			rep.ok++
			lats = append(lats, r.latency)
			if r.slotErr > rep.worstErr {
				rep.worstErr = r.slotErr
			}
			if w := perProg[r.program]; w == nil || r.slotErr > w.slotErr {
				perProg[r.program] = &results[i]
			}
			if r.tol > 0 && r.slotErr > r.tol {
				rep.violations = append(rep.violations, r)
			}
		case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
			rep.shed++
		default:
			rep.errors++
			if r.transport != nil {
				errTransport++
				if errTransport <= 5 {
					fmt.Printf("  request failed: %v\n", r.transport)
				}
			} else {
				errHTTP[r.status]++
			}
		}
	}
	fmt.Printf("\n%d requests in %v: %d ok, %d shed, %d errors\n", len(results), elapsed.Round(time.Millisecond), rep.ok, rep.shed, rep.errors)
	if rep.errors > 0 {
		fmt.Printf("errors (excluded from latency quantiles): %d transport", errTransport)
		for status, n := range errHTTP {
			fmt.Printf(", %d HTTP %d", n, status)
		}
		fmt.Println()
	}
	if elapsed > 0 {
		fmt.Printf("goodput: %.1f req/s\n", float64(rep.ok)/elapsed.Seconds())
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) time.Duration {
			i := int(math.Ceil(p*float64(len(lats)))) - 1
			if i < 0 {
				i = 0
			}
			return lats[i]
		}
		fmt.Printf("client latency (ok only): p50 %v  p95 %v  p99 %v  max %v\n",
			q(0.50).Round(10*time.Microsecond), q(0.95).Round(10*time.Microsecond),
			q(0.99).Round(10*time.Microsecond), lats[len(lats)-1].Round(10*time.Microsecond))
	}
	fmt.Printf("worst slot error vs reference: %.2e\n", rep.worstErr)
	progs := make([]string, 0, len(perProg))
	for name := range perProg {
		progs = append(progs, name)
	}
	sort.Strings(progs)
	for _, name := range progs {
		w := perProg[name]
		bound := "report only"
		if w.tol > 0 {
			bound = fmt.Sprintf("tol %.1e", w.tol)
		}
		fmt.Printf("  %-10s worst %.2e (%s)\n", name, w.slotErr, bound)
	}
	sort.Slice(rep.violations, func(i, j int) bool { return rep.violations[i].slotErr > rep.violations[j].slotErr })
	return rep
}

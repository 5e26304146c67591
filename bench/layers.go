package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"syscall"
	"time"

	"cinnamon/internal/bootstrap"
	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/emulator"
	"cinnamon/internal/keyswitch"
	"cinnamon/internal/ring"
	"cinnamon/internal/sched"
	"cinnamon/internal/serve"
)

// layerBudget sizes the traced pass: replayed requests and kernel
// iterations. -smoke shrinks it.
type layerBudget struct{ requests, kernelIters, execIters, bootIters int }

// windowLayers derives the per-layer metrics that need no traced pass: the
// harness's own latency splits, the set-up stages, and the server's counter
// deltas over the timed window.
func windowLayers(w *workload, st *stack, stages map[string]float64, win *window, e2e map[string]float64) map[string]float64 {
	m := map[string]float64{}
	all := win.latencies(func(sample) bool { return true })
	m["client.samples"] = float64(len(all))
	m["client.latency_p95_ms"] = percentile(all, 0.95)
	if w.sessions == "" {
		for pi, name := range st.cfg.inputs {
			m["client.p50_ms."+name] = percentile(win.latencies(func(s sample) bool { return s.program == pi }), 0.5)
		}
	}
	if len(st.tenants) > nClients {
		m["client.hot_tenant_p50_ms"] = percentile(win.latencies(func(s sample) bool { return s.tenant == 0 }), 0.5)
		// The tail is every tenant the budget cannot keep resident beside
		// the two hottest.
		m["client.tail_tenant_p50_ms"] = percentile(win.latencies(func(s sample) bool { return s.tenant >= 2 }), 0.5)
	}
	if w.sessions != "" {
		m["client.step_first_p50_ms"] = percentile(win.latencies(func(s sample) bool { return s.step == 0 }), 0.5)
		m["client.step_resumed_p50_ms"] = percentile(win.latencies(func(s sample) bool { return s.step > 0 }), 0.5)
	}
	for stage, sec := range stages {
		m[stage] = sec
	}

	b, a := win.before, win.after
	reqs := float64(a.Completed - b.Completed)
	m["serve.batch_occupancy"] = ratio(float64(a.BatchedRequests-b.BatchedRequests), float64(a.Batches-b.Batches))
	m["serve.shed_share"] = ratio(float64(a.Rejected-b.Rejected), float64(a.Received-b.Received))
	m["serve.timeouts"] = float64(a.Timeouts - b.Timeouts)
	m["serve.emulator_fallbacks"] = float64(a.EmulatorFallbacks - b.EmulatorFallbacks)
	if kb, ka := b.KeyCache, a.KeyCache; kb != nil && ka != nil {
		hits, misses := float64(ka.Hits-kb.Hits), float64(ka.Misses-kb.Misses)
		stalls := float64(ka.ColdMissStalls - kb.ColdMissStalls)
		m["serve.keycache_hit_share"] = ratio(hits, hits+misses)
		m["serve.keycache_cold_stalls_per_req"] = ratio(stalls, reqs)
		if ka.ColdMissStallMs != nil {
			m["serve.keycache_cold_stall_p50_ms"] = ka.ColdMissStallMs.P50Ms
		}
		if misses > 0 {
			m["serve.keycache_prefetch_useful_share"] = 1 - stalls/misses
		}
		m["serve.keycache_evictions_per_req"] = ratio(float64(ka.Evictions-kb.Evictions), reqs)
		m["serve.keycache_resident_mb"] = float64(ka.ResidentBytes) / 1e6
	}
	if steps := float64(a.SessionSteps - b.SessionSteps); steps > 0 {
		m["serve.sessionlog_bytes_per_step"] = float64(win.logAfter-win.logBefore) / steps
		m["sched.refreshes_per_step"] = float64(a.Bootstraps-b.Bootstraps) / steps
	}
	if ticks := float64(a.BootstrapBatches - b.BootstrapBatches); ticks > 0 {
		m["sched.tick_size_mean"] = float64(a.Bootstraps-b.Bootstraps) / ticks
		m["sched.tick_p50_ms"] = a.BootstrapMs.P50Ms
		m["bootstrap.share_of_step"] = ratio(m["sched.refreshes_per_step"]*m["sched.tick_p50_ms"], e2e["latency_p50_ms"])
	}
	if cb, ca := b.Cluster, a.Cluster; cb != nil && ca != nil {
		collectives := float64(ca.Broadcasts + ca.Aggregations - cb.Broadcasts - cb.Aggregations)
		m["cluster.collectives_per_req"] = ratio(collectives, reqs)
		m["cluster.wire_bytes_per_req"] = ratio(float64(ca.BytesSent+ca.BytesReceived-cb.BytesSent-cb.BytesReceived), reqs)
		m["cluster.collective_p50_ms"] = ca.CollectiveLatency.P50Ms
		m["cluster.collective_share"] = ratio(m["cluster.collectives_per_req"]*m["cluster.collective_p50_ms"], e2e["latency_p50_ms"])
		m["cluster.local_fallbacks"] = float64(ca.LocalFallbacks - cb.LocalFallbacks)
		m["cluster.reconnects"] = float64(ca.Reconnects - cb.Reconnects)
		m["cluster.key_pushes_timed"] = float64(ca.KeyPushes - cb.KeyPushes)
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["process.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	m["process.alloc_mb_per_req"] = ratio(float64(win.memAfter.TotalAlloc-win.memBefore.TotalAlloc)/1e6, float64(len(win.samples)))
	m["process.gc_pause_share"] = float64(win.memAfter.PauseTotalNs-win.memBefore.PauseTotalNs) / 1e9 / win.seconds
	m["verify.sampled"] = float64(win.verified)
	m["verify.max_slot_err"] = win.maxSlotErr
	return m
}

// tracedLayers is the traced pass: after the window, at concurrency 1, the
// harness replays requests layer by layer from outside — the HTTP round
// trip, then the same ciphertext through Core.Submit, Registry.TenantKeys
// and the executor — and loops over the kernels at the workload's ring,
// recording a span around every call it makes.
func tracedLayers(w *workload, st *stack, tr *tracer, seed int64, lb layerBudget, m map[string]float64) error {
	if err := traceOneShots(w, st, tr, seed, lb, m); err != nil {
		return fmt.Errorf("one-shot replay: %w", err)
	}
	if w.sessions != "" {
		if err := traceSessions(w, st, tr, lb, m); err != nil {
			return fmt.Errorf("session replay: %w", err)
		}
		if err := traceBootstrap(st, tr, lb, m); err != nil {
			return fmt.Errorf("bootstrap: %w", err)
		}
	}
	if st.budget > 0 {
		if err := traceTenantKeys(st, tr, lb, m); err != nil {
			return fmt.Errorf("tenant keys: %w", err)
		}
	}
	if err := traceExecutors(st, tr, lb, m); err != nil {
		return fmt.Errorf("executors: %w", err)
	}
	if err := traceKernels(st, tr, lb, m); err != nil {
		return fmt.Errorf("kernels: %w", err)
	}
	return nil
}

// execute runs prog on ct the way the serving core does: compiled limb ISA
// on a reused emulator machine when engine is nil, the spec's Reference
// closure over the cluster engine's keyswitcher otherwise.
func execute(st *stack, engine *cluster.Engine, prog *serve.Program, t *tenant, keys map[string]*ckks.EvalKey, ct *ckks.Ciphertext, machines map[string]*emulator.Machine) (*ckks.Ciphertext, error) {
	if engine != nil {
		ev := ckks.NewEvaluator(st.params, keys["rlk"], rotationKeys(keys))
		ev.SetKeySwitcher(engine.Bound(context.Background()))
		return prog.Spec.Reference(ev, t.enc, ct)
	}
	prov := emulator.NewCKKSProvider(st.params)
	prov.Plaintexts, prov.Keys = prog.Plaintexts, keys
	prov.Inputs["x0"] = ct
	mach := machines[prog.Spec.Name]
	if mach == nil {
		mach = emulator.New(st.params.Ring, prog.VariantFor(1).Module, prov)
		machines[prog.Spec.Name] = mach
	} else {
		mach.Reset(prov)
	}
	if err := mach.Run(); err != nil {
		return nil, err
	}
	return prov.Output("y0", prog.OutLevel, prog.OutScale)
}

// rotationKeys splits a tenant's key map by the "rot:<k>"/"conj" ids.
func rotationKeys(keys map[string]*ckks.EvalKey) *ckks.RotationKeySet {
	rtks := &ckks.RotationKeySet{Keys: map[int]*ckks.EvalKey{}, Conj: keys["conj"]}
	for id, k := range keys {
		if off, ok := rotationOffset(id); ok {
			rtks.Keys[off] = k
		}
	}
	return rtks
}

// traceOneShots replays lb.requests one-shot requests of the workload's mix
// (square alone on the session workload) as span trees:
//
//	http ─┬─ req_unmarshal
//	      ├─ submit ─┬─ tenantkeys
//	      │          └─ exec
//	      └─ resp_marshal
//
// The same requests go over HTTP untraced first; the two p50s give
// trace.overhead_share.
func traceOneShots(w *workload, st *stack, tr *tracer, seed int64, lb layerBudget, m map[string]float64) error {
	hc := newHTTPClient()
	defer hc.close()
	programs, tenants := w.programs, w.tenants
	if w.sessions != "" {
		programs, tenants = []share{{0, 1}}, []share{{0, 1}}
	}
	machines := map[string]*emulator.Machine{}
	ctx := context.Background()
	var traced, plain, submits, httpOver, queueSelf, unattributed []float64
	// Two passes over the same request sequence: untraced HTTP only, then
	// traced with the replays. The replays touch no tenant the HTTP request
	// did not, so both passes see the same key-cache hits and misses.
	pd, td := newDeck(programs, seed), newDeck(tenants, seed)
	for req := -lb.requests; req < lb.requests; req++ {
		if req == 0 {
			pd, td = newDeck(programs, seed), newDeck(tenants, seed)
		}
		name, t := st.cfg.inputs[pd.next()], st.tenants[td.next()]
		in := t.inputs[name][(req+lb.requests)%len(t.inputs[name])]
		prog, _ := st.reg.Program(name)
		url := st.base + "/v1/programs/" + name + ":run"
		post := func() error {
			status, _, err := hc.post(url, t.id, in.body)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("%s: status %d: %v", url, status, err)
			}
			return nil
		}
		if req < 0 {
			_, d, err := (*tracer)(nil).do("", -1, req, post)
			if err != nil {
				return err
			}
			plain = append(plain, ms(d))
			continue
		}
		root, dHTTP, err := tr.do("http", -1, req, post)
		if err != nil {
			return err
		}
		var ct, out *ckks.Ciphertext
		_, dIn, err := tr.do("req_unmarshal", root, req, func() (err error) {
			ct, err = ckks.ReadCiphertext(bytes.NewReader(in.body), st.params)
			return err
		})
		if err != nil {
			return err
		}
		sub, dSubmit, err := tr.do("submit", root, req, func() (err error) {
			out, err = st.core.Submit(ctx, name, t.id, ct)
			return err
		})
		if err != nil {
			return err
		}
		var keys map[string]*ckks.EvalKey
		_, dKeys, err := tr.do("tenantkeys", sub, req, func() error {
			var ok bool
			if keys, ok = st.reg.TenantKeys(t.id); !ok {
				return fmt.Errorf("tenant %s unknown to the registry", t.id)
			}
			return nil
		})
		if err != nil {
			return err
		}
		_, dExec, err := tr.do("exec", sub, req, func() error {
			_, err := execute(st, st.engine, prog, t, keys, ct, machines)
			return err
		})
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		_, dOut, err := tr.do("resp_marshal", root, req, func() error { return out.Write(&buf) })
		if err != nil {
			return err
		}
		traced = append(traced, ms(dHTTP))
		submits = append(submits, ms(dSubmit))
		httpOver = append(httpOver, ms(dHTTP-dSubmit))
		queueSelf = append(queueSelf, ms(dSubmit-dKeys-dExec))
		unattributed = append(unattributed, 1-float64(dIn+dKeys+dExec+dOut)/float64(dHTTP))
	}
	m["serve.submit_p50_ms"] = median(submits)
	m["serve.http_overhead_ms"] = median(httpOver)
	m["serve.queue_self_ms"] = median(queueSelf)
	if w.sessions == "" {
		m["trace.overhead_share"] = ratio(median(traced)-median(plain), median(plain))
		m["trace.unattributed_share"] = median(unattributed)
	}
	return nil
}

// traceSessions replays one session three ways on the same input: over HTTP
// (once traced, once not), through Core.SessionStep, and through the
// program's executor with the refresh done by a solo Bootstrap:
//
//	http_step ── session_step ── exec ── bootstrap
//
// It then times a square session's first step on this durable core against
// a memory-only core over the same registry.
func traceSessions(w *workload, st *stack, tr *tracer, lb layerBudget, m map[string]float64) error {
	ctx := context.Background()
	t := st.tenants[0]
	in := t.inputs[w.sessions][0]
	prog, _ := st.reg.Program(w.sessions)
	hc := newHTTPClient()
	defer hc.close()

	steps := sessionSteps
	if lb.requests < steps {
		steps = lb.requests
	}
	httpSession := func(tr *tracer) ([]int, []time.Duration, error) {
		var roots []int
		var ds []time.Duration
		id, err := hc.createSession(st.base, t.id, w.sessions)
		if err != nil {
			return nil, nil, err
		}
		for j := 0; j < steps; j++ {
			var b []byte
			if j == 0 {
				b = in.body
			}
			root, d, err := tr.do("http_step", -1, j, func() error {
				status, _, err := hc.post(st.base+"/v1/sessions/"+id+":step", "", b)
				if err != nil || status != http.StatusOK {
					return fmt.Errorf("session step: status %d: %v", status, err)
				}
				return nil
			})
			if err != nil {
				return nil, nil, err
			}
			roots, ds = append(roots, root), append(ds, d)
		}
		_, _, err = hc.do(http.MethodDelete, st.base+"/v1/sessions/"+id, "", nil)
		return roots, ds, err
	}
	roots, traced, err := httpSession(tr)
	if err != nil {
		return err
	}
	_, plain, err := httpSession(nil)
	if err != nil {
		return err
	}

	bs, err := st.reg.BootstrapperFor(t.id)
	if err != nil {
		return err
	}
	info, err := st.core.CreateSession(t.id, w.sessions)
	if err != nil {
		return err
	}
	state := in.ct
	var stepSelf, unattributed []float64
	for j := 0; j < steps; j++ {
		var seedCT *ckks.Ciphertext
		if j == 0 {
			seedCT = in.ct
		}
		var next *ckks.Ciphertext
		stepSpan, dStep, err := tr.do("session_step", roots[j], j, func() (err error) {
			next, _, err = st.core.SessionStep(ctx, info.ID, seedCT)
			return err
		})
		if err != nil {
			return err
		}
		execSpan := tr.nextID()
		_, dExec, err := tr.do("exec", stepSpan, j, func() error {
			_, err := prog.Executor().Run(ctx, t.ev, state, sched.RunOpts{
				Refresh: func(_ context.Context, ct *ckks.Ciphertext) (out *ckks.Ciphertext, err error) {
					_, _, err = tr.do("bootstrap", execSpan, j, func() (err error) {
						out, err = bs.Bootstrap(ct)
						return err
					})
					return out, err
				},
			})
			return err
		})
		if err != nil {
			return err
		}
		state = next
		stepSelf = append(stepSelf, ms(dStep-dExec))
		unattributed = append(unattributed, 1-float64(dExec)/float64(traced[j]))
	}
	if err := st.core.CloseSession(info.ID); err != nil {
		return err
	}
	m["serve.session_step_self_ms"] = median(stepSelf)
	m["trace.unattributed_share"] = median(unattributed)
	m["trace.overhead_share"] = ratio(median(msOf(traced))-median(msOf(plain)), median(msOf(plain)))

	// Durable against memory-only, on a step too cheap to hide the fsync.
	mem, err := serve.NewDurableCore(st.reg, serve.Config{})
	if err != nil {
		return err
	}
	defer mem.Close(ctx)
	sq := t.inputs["square"][0].ct
	firstStep := func(core *serve.Core, name string) (time.Duration, error) {
		return tr.repeat(name, lb.execIters, func() error {
			info, err := core.CreateSession(t.id, "square")
			if err != nil {
				return err
			}
			if _, _, err := core.SessionStep(ctx, info.ID, sq); err != nil {
				return err
			}
			return core.CloseSession(info.ID)
		})
	}
	durable, err := firstStep(st.core, "square_session_durable")
	if err != nil {
		return err
	}
	memory, err := firstStep(mem, "square_session_memory")
	if err != nil {
		return err
	}
	m["serve.sessionlog_durable_delta_ms"] = ms(durable - memory)
	return nil
}

// traceBootstrap times one refresh alone and two tenants' refreshes sharing
// a BootstrapBatch pass.
func traceBootstrap(st *stack, tr *tracer, lb layerBudget, m map[string]float64) error {
	var items []*bootstrap.BatchItem
	for _, t := range st.tenants[:2] {
		bs, err := st.reg.BootstrapperFor(t.id)
		if err != nil {
			return err
		}
		low, err := bs.Evaluator().DropLevel(t.inputs["square"][0].ct, 0)
		if err != nil {
			return err
		}
		items = append(items, &bootstrap.BatchItem{BS: bs, CT: low})
	}
	solo, err := tr.repeat("bootstrap_solo", lb.bootIters, func() error {
		_, err := items[0].BS.Bootstrap(items[0].CT)
		return err
	})
	if err != nil {
		return err
	}
	batch, err := tr.repeat("bootstrap_batch2", lb.bootIters, func() error {
		bootstrap.BootstrapBatch(items)
		for _, it := range items {
			if it.Err != nil {
				return it.Err
			}
			it.Out = nil
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["bootstrap.solo_ms"] = ms(solo)
	m["bootstrap.batch2_ms_per_item"] = ms(batch) / 2
	return nil
}

// traceTenantKeys times Registry.TenantKeys on a resident tenant and on one
// the budget has spilled: touching three other tenants first pushes the
// probed one out of a 2.5-bundle cache.
func traceTenantKeys(st *stack, tr *tracer, lb layerBudget, m map[string]float64) error {
	get := func(i int) func() error {
		return func() error {
			if _, ok := st.reg.TenantKeys(st.tenants[i].id); !ok {
				return fmt.Errorf("tenant %d unknown to the registry", i)
			}
			return nil
		}
	}
	hit, err := tr.repeat("tenantkeys_hit", lb.kernelIters, get(0))
	if err != nil {
		return err
	}
	var cold []float64
	for i := 0; i < lb.execIters; i++ {
		for _, other := range []int{1, 2, 3} {
			if err := get(other)(); err != nil {
				return err
			}
		}
		_, d, err := tr.do("tenantkeys_cold", -1, -1, get(0))
		if err != nil {
			return err
		}
		cold = append(cold, ms(d))
	}
	m["serve.tenantkeys_hit_us"] = us(hit)
	m["serve.tenantkeys_cold_ms"] = median(cold)
	return nil
}

// traceExecutors runs rotsum and logreg16 on the same ciphertext through the
// three ways this repo can execute a program.
func traceExecutors(st *stack, tr *tracer, lb layerBudget, m map[string]float64) error {
	ctx := context.Background()
	t := st.tenants[0]
	ev := t.ev
	for _, name := range []string{"rotsum", "logreg16"} {
		prog, ok := st.reg.Program(name)
		if !ok {
			continue
		}
		pool := t.inputs[name]
		if len(pool) == 0 {
			pool = t.inputs["square"] // any full-level ciphertext times the same
		}
		ct := pool[0].ct
		mod := prog.VariantFor(1).Module
		instrs := 0
		for _, chip := range mod.Chips {
			instrs += len(chip.Instrs)
		}
		m["limbir.instrs."+name] = float64(instrs)
		machines := map[string]*emulator.Machine{}
		emu, err := tr.repeat("emulator_run:"+name, lb.execIters, func() error {
			_, err := execute(st, nil, prog, t, t.keys, ct, machines)
			return err
		})
		if err != nil {
			return err
		}
		graph, err := tr.repeat("sched_run:"+name, lb.execIters, func() error {
			_, err := prog.Executor().Run(ctx, ev, ct, sched.RunOpts{})
			return err
		})
		if err != nil {
			return err
		}
		ref, err := tr.repeat("ckks_reference:"+name, lb.execIters, func() error {
			_, err := prog.Spec.Reference(ev, t.enc, ct)
			return err
		})
		if err != nil {
			return err
		}
		m["emulator.run_ms."+name] = ms(emu)
		m["sched.run_ms."+name] = ms(graph)
		m["ckks.reference_ms."+name] = ms(ref)
	}
	return nil
}

// traceKernels loops over the ring, ckks and keyswitch kernels at the
// workload's ring and full chain, and over the cluster keyswitch where the
// stack has an engine.
func traceKernels(st *stack, tr *tracer, lb layerBudget, m map[string]float64) error {
	params, r := st.params, st.params.Ring
	t := st.tenants[0]
	ct := t.inputs[st.cfg.inputs[0]][0].ct
	rlk := t.keys["rlk"]
	if t.keys["rot:1"] == nil {
		return fmt.Errorf("tenant lacks rot:1")
	}
	ev := t.ev
	n := lb.kernelIters

	p := ct.C0.Copy()
	scratch := ct.C0.Copy()
	gal := r.GaloisElementForRotation(1)
	var intt, ntt []float64
	for i := 0; i <= n; i++ {
		_, dI, err := tr.do("ring_intt", -1, -1, func() error { return r.INTT(p) })
		if err != nil {
			return err
		}
		_, dN, err := tr.do("ring_ntt", -1, -1, func() error { return r.NTT(p) })
		if err != nil {
			return err
		}
		if i > 0 { // the first round warms the tables
			intt, ntt = append(intt, us(dI)), append(ntt, us(dN))
		}
	}
	m["ring.intt_us"], m["ring.ntt_us"] = median(intt), median(ntt)
	auto, err := tr.repeat("ring_automorphism", n, func() error { return r.Automorphism(p, gal, scratch) })
	if err != nil {
		return err
	}
	m["ring.automorphism_us"] = us(auto)
	coeff := ct.C0.Copy()
	if err := r.INTT(coeff); err != nil {
		return err
	}
	var up, down []float64
	for i := 0; i <= n; i++ {
		var ext, back *ring.Poly
		_, dUp, err := tr.do("ring_modup", -1, -1, func() (err error) {
			ext, err = r.ModUp(coeff, params.PBasis)
			return err
		})
		if err != nil {
			return err
		}
		_, dDown, err := tr.do("ring_moddown", -1, -1, func() (err error) {
			back, err = r.ModDown(ext, params.PBasis)
			return err
		})
		if err != nil {
			return err
		}
		r.PutPoly(ext)
		r.PutPoly(back)
		if i > 0 {
			up, down = append(up, us(dUp)), append(down, us(dDown))
		}
	}
	m["ring.modup_us"], m["ring.moddown_us"] = median(up), median(down)

	ks, err := tr.repeat("ckks_keyswitch", n, func() error {
		f0, f1, err := ev.KeySwitch(ct.C1, rlk)
		if err != nil {
			return err
		}
		r.PutPoly(f0)
		r.PutPoly(f1)
		return nil
	})
	if err != nil {
		return err
	}
	var prod *ckks.Ciphertext
	mul, err := tr.repeat("ckks_mul_relin", n, func() (err error) {
		prod, err = ev.MulRelin(ct, ct)
		return err
	})
	if err != nil {
		return err
	}
	rotate, err := tr.repeat("ckks_rotate", n, func() error {
		_, err := ev.Rotate(ct, 1)
		return err
	})
	if err != nil {
		return err
	}
	rescale, err := tr.repeat("ckks_rescale", n, func() error {
		_, err := ev.Rescale(prod)
		return err
	})
	if err != nil {
		return err
	}
	var wire bytes.Buffer
	marshal, err := tr.repeat("ckks_ct_marshal", n, func() error {
		wire.Reset()
		return ct.Write(&wire)
	})
	if err != nil {
		return err
	}
	unmarshal, err := tr.repeat("ckks_ct_unmarshal", n, func() error {
		_, err := ckks.ReadCiphertext(bytes.NewReader(wire.Bytes()), params)
		return err
	})
	if err != nil {
		return err
	}
	m["ckks.keyswitch_ms"] = ms(ks)
	m["ckks.mul_relin_ms"] = ms(mul)
	m["ckks.rotate_ms"] = ms(rotate)
	m["ckks.rescale_ms"] = ms(rescale)
	m["ckks.ct_marshal_ms"] = ms(marshal)
	m["ckks.ct_unmarshal_ms"] = ms(unmarshal)
	m["ckks.keyswitch_per_ntt"] = ratio(us(ks), m["ring.ntt_us"])

	// The paper's two parallel keyswitch algorithms on 2 in-process chips.
	// Output aggregation needs its own modular-digit key; the key's secret is
	// irrelevant to the timing.
	eng, err := keyswitch.NewEngine(params, 2)
	if err != nil {
		return err
	}
	sk, err := ckks.NewKeyGenerator(params).GenSecretKey()
	if err != nil {
		return err
	}
	modKeys, err := keyswitch.GenModularRotationKeys(params, sk, 2, []int{1})
	if err != nil {
		return err
	}
	for _, alg := range []struct {
		metric string
		alg    keyswitch.Algorithm
		key    *ckks.EvalKey
	}{
		{"keyswitch.input_broadcast_ms", keyswitch.InputBroadcast, rlk},
		{"keyswitch.output_aggregation_ms", keyswitch.OutputAggregation, modKeys[1]},
	} {
		d, err := tr.repeat(alg.alg.String(), n, func() error {
			f0, f1, _, err := eng.KeySwitch(ct.C1, alg.key, alg.alg)
			if err != nil {
				return err
			}
			r.PutPoly(f0)
			r.PutPoly(f1)
			return nil
		})
		if err != nil {
			return err
		}
		m[alg.metric] = ms(d)
	}

	if st.engine != nil {
		// The engine addresses pushed keys by pointer, so only the registry's
		// own decoded rlk is the one warm-up already sent to the workers:
		// this is the steady-state collective (encode, wire, worker compute,
		// aggregate).
		keys, _ := st.reg.TenantKeys(t.id)
		d, err := tr.repeat("cluster_keyswitch", n, func() error {
			f0, f1, _, err := st.engine.KeySwitchStats(ct.C1, keys["rlk"])
			if err != nil {
				return err
			}
			r.PutPoly(f0)
			r.PutPoly(f1)
			return nil
		})
		if err != nil {
			return err
		}
		m["cluster.keyswitch_ms"] = ms(d)
		m["cluster.remote_overhead_ratio"] = ratio(ms(d), m["ckks.keyswitch_ms"])
	}
	return nil
}

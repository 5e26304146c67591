// Command corebench times the core limb-level kernels of the CKKS
// substrate — NTT/INTT, pointwise multiply, base conversion (ModUp /
// ModDown), rescale, automorphism and the full hybrid keyswitch — on one
// goroutine, and writes the results to a JSON report (BENCH_core.json).
//
// Usage:
//
//	corebench -out BENCH_core.json -logn 12
//	corebench -compare BENCH_core.json -tolerance 0.10
//
// With -compare, the freshly measured numbers are checked against the
// committed baseline report: any hot op slower by more than -tolerance
// (relative, against the baseline's run of the same worker count) fails
// the run with a nonzero exit, which is how CI catches performance
// regressions on the core kernels. Every limb loop is serial, so the one
// run is recorded as workers 1; a baseline's other rows are skipped.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"cinnamon/internal/bootstrap"
	"cinnamon/internal/ckks"
	"cinnamon/internal/rns"
	"cinnamon/internal/sched"
	"cinnamon/internal/serve"
	"cinnamon/internal/tensor"
	"cinnamon/internal/workloads"
)

type opTiming struct {
	NsPerOp int64 `json:"ns_per_op"`
	Iters   int   `json:"iters"`
}

type workerRun struct {
	Workers int                 `json:"workers"`
	Ops     map[string]opTiming `json:"ops"`
}

type report struct {
	GeneratedBy string  `json:"generated_by"`
	HostCores   int     `json:"host_cores"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	LogN        int     `json:"logn"`
	ChainLimbs  int     `json:"chain_limbs"`
	ExtLimbs    int     `json:"ext_limbs"`
	WallSeconds float64 `json:"wall_seconds"`

	Runs []workerRun `json:"runs"`

	// MulMod kernel comparison (ns per element, serial).
	Kernels map[string]float64 `json:"mulmod_kernels_ns_per_elem"`

	// Poly buffer pool: heap allocations per acquire/release cycle vs a
	// fresh NewPoly.
	PoolAllocs map[string]float64 `json:"poly_pool_allocs_per_op"`

	// ServeRPS is end-to-end serving throughput: single `square` requests
	// through the full admission → worker slot → executor pipeline of
	// internal/serve, requests per second. Zero when -serve=false.
	ServeRPS float64 `json:"serve_rps"`

	// ServeManyTenantRPS is the same pipeline under many-tenant key-cache
	// churn: 8 tenants with independent key bundles, a key budget admitting
	// only 2 of them, and Zipf-skewed tenant draws — so hot tenants ride
	// the resident cache while the tail churns through evictions and spill
	// reloads. Zero when -serve=false.
	ServeManyTenantRPS float64 `json:"serve_manytenant_rps"`
}

func main() {
	logN := flag.Int("logn", 12, "ring degree log2")
	limbs := flag.Int("limbs", 9, "chain limbs (keyswitch digit count follows the usual hybrid choice)")
	ext := flag.Int("ext", 2, "extension limbs")
	iters := flag.Int("iters", 20, "iterations per heavy op")
	out := flag.String("out", "BENCH_core.json", "output JSON path")
	compare := flag.String("compare", "", "baseline report to regression-check against (exit 1 on regression)")
	tolerance := flag.Float64("tolerance", 0.10, "relative slowdown allowed per op before -compare fails")
	serveBench := flag.Bool("serve", true, "measure end-to-end serving throughput (serve_rps)")
	flag.Parse()

	if err := run(*logN, *limbs, *ext, *iters, *out, *compare, *tolerance, *serveBench); err != nil {
		fmt.Fprintln(os.Stderr, "corebench:", err)
		os.Exit(1)
	}
}

func run(logN, limbs, ext, iters int, out, compare string, tolerance float64, serveBench bool) error {
	start := time.Now()

	logQ := make([]int, limbs)
	logQ[0] = 55
	for i := 1; i < limbs; i++ {
		logQ[i] = 45
	}
	logP := make([]int, ext)
	for i := range logP {
		logP[i] = 58
	}
	// The tensor_matmul row's program: the tensor frontend's 64×64 BSGS
	// matvec, compiled by a one-program registry whose parameters every row
	// shares.
	mm := tensor.NewModel("corebench_mm", 64)
	mm.Output(mm.MatVec(mm.Input(), "w", 64, 64, tensor.BSGS))
	cmp, err := tensor.Compile(mm)
	if err != nil {
		return err
	}
	reg, err := serve.NewRegistry(serve.RegistryConfig{
		Literal:  ckks.ParametersLiteral{LogN: logN, LogQ: logQ, LogP: logP, LogScale: 45, Seed: 20260805},
		Programs: []workloads.ServeWorkload{{Name: cmp.Name(), Build: cmp.Build, Plaintexts: cmp.PlaintextSpecs()}},
	})
	if err != nil {
		return err
	}
	params := reg.Params
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
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk)
	ev := ckks.NewEvaluator(params, rlk, nil)
	r := params.Ring

	slots := 1 << (logN - 3)
	if slots > 256 {
		slots = 256
	}
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(float64(i%7)/7-0.5, float64(i%5)/5-0.5)
	}
	pt, err := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		return err
	}
	ct, err := encr.Encrypt(pt)
	if err != nil {
		return err
	}

	chain := ct.C0.Basis
	p1 := ct.C0.Copy()
	p2 := ct.C1.Copy()
	scratch := r.NewPoly(chain)
	scratch.IsNTT = true
	coeff := ct.C0.Copy()
	if err := r.INTT(coeff); err != nil {
		return err
	}

	// time runs fn n times and returns ns/op; the first (warm-up) call is
	// excluded so pool/cache population doesn't skew small iteration counts.
	timeOp := func(n int, fn func() error) (opTiming, error) {
		if err := fn(); err != nil {
			return opTiming{}, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return opTiming{}, err
			}
		}
		return opTiming{NsPerOp: time.Since(t0).Nanoseconds() / int64(n), Iters: n}, nil
	}

	gal := r.GaloisElementForRotation(1)
	ops := []struct {
		name string
		fn   func() error
	}{
		{"ntt", func() error { q := coeff.Copy(); return r.NTT(q) }},
		{"intt", func() error { q := p1.Copy(); return r.INTT(q) }},
		{"mulcoeffs", func() error { return r.MulCoeffs(p1, p2, scratch) }},
		{"automorphism", func() error { return r.Automorphism(p1, gal, scratch) }},
		{"modup", func() error {
			e, err := r.ModUp(coeff, params.PBasis)
			if err != nil {
				return err
			}
			r.PutPoly(e)
			return nil
		}},
		{"moddown", func() error {
			e, err := r.ModUp(coeff, params.PBasis)
			if err != nil {
				return err
			}
			d, err := r.ModDown(e, params.PBasis)
			if err != nil {
				return err
			}
			r.PutPoly(e)
			r.PutPoly(d)
			return nil
		}},
		{"rescale", func() error {
			d, err := r.Rescale(coeff)
			if err != nil {
				return err
			}
			r.PutPoly(d)
			return nil
		}},
		{"keyswitch", func() error {
			f0, f1, err := ev.KeySwitch(ct.C1, rlk)
			if err != nil {
				return err
			}
			r.PutPoly(f0)
			r.PutPoly(f1)
			return nil
		}},
	}

	// tensor_matmul: the 64×64 BSGS matvec end to end — 2√d rotation
	// keyswitches, 64 plaintext multiplies and the closing rescale — run by
	// its registry's executor on the input truncated to the program's input
	// level: the serving path.
	{
		prog, _ := reg.Program(cmp.Name())
		rtks, err := kg.GenRotationKeySet(sk, prog.Rotations, false)
		if err != nil {
			return err
		}
		evRot := ckks.NewEvaluator(params, nil, rtks)
		in := ct.AtLevel(prog.InLevel)
		ops = append(ops, struct {
			name string
			fn   func() error
		}{"tensor_matmul", func() error {
			out, err := prog.Executor().Run(context.Background(), evRot, in, sched.RunOpts{})
			evRot.Release(out)
			return err
		}})
	}

	// bootstrap: one full CKKS refresh (ScaleUp → ModRaise → CoeffToSlot →
	// EvalMod → SlotToCoeff) on its own sparse-secret parameter set — what
	// the serving runtime's refresh hook runs, once per exhausted chain, for
	// a deep request. Small ring (logN=8, 16 levels) for the same reason as the
	// serve gate: this row watches the circuit's constant factors.
	{
		blit := workloads.ServeBootstrapParamsLiteral(8, 16, 20260805)
		bparams, err := ckks.NewParameters(blit)
		if err != nil {
			return err
		}
		pre, err := bootstrap.NewPrecomp(bparams, bootstrap.DefaultConfig())
		if err != nil {
			return err
		}
		bkg := ckks.NewKeyGenerator(bparams)
		bsk, err := bkg.GenSecretKey()
		if err != nil {
			return err
		}
		bpk, err := bkg.GenPublicKey(bsk)
		if err != nil {
			return err
		}
		brlk, err := bkg.GenRelinKey(bsk)
		if err != nil {
			return err
		}
		brtks, err := bkg.GenRotationKeySet(bsk, pre.Rotations(), true)
		if err != nil {
			return err
		}
		bs, err := pre.Bind(ckks.NewEvaluator(bparams, brlk, brtks))
		if err != nil {
			return err
		}
		benc := ckks.NewEncoder(bparams)
		bv := make([]complex128, bparams.Slots())
		for i := range bv {
			bv[i] = complex(float64(i%7)/7-0.5, float64(i%5)/5-0.5)
		}
		bpt, err := benc.Encode(bv, bparams.MaxLevel(), bparams.DefaultScale())
		if err != nil {
			return err
		}
		bct, err := ckks.NewEncryptor(bparams, bpk).Encrypt(bpt)
		if err != nil {
			return err
		}
		low, err := bs.Evaluator().DropLevel(bct, 0)
		if err != nil {
			return err
		}
		ops = append(ops, struct {
			name string
			fn   func() error
		}{"bootstrap", func() error {
			_, err := bs.Bootstrap(low)
			return err
		}})
	}

	rep := report{
		GeneratedBy: "cmd/corebench",
		HostCores:   runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		LogN:        logN,
		ChainLimbs:  limbs,
		ExtLimbs:    ext,
		Kernels:     map[string]float64{},
		PoolAllocs:  map[string]float64{},
	}

	timed := workerRun{Workers: 1, Ops: map[string]opTiming{}}
	for _, op := range ops {
		n := iters
		if op.name == "tensor_matmul" {
			// A full matvec is ~20 keyswitches plus 64 encodes; a quarter
			// of the iteration budget keeps the run's wall time bounded.
			n = (iters + 3) / 4
		}
		if op.name == "bootstrap" {
			// A refresh is hundreds of keyswitches; a tenth of the budget
			// is plenty for a stable ns/op.
			n = (iters + 9) / 10
		}
		t, err := timeOp(n, op.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", op.name, err)
		}
		timed.Ops[op.name] = t
	}
	rep.Runs = append(rep.Runs, timed)

	// Serial per-element kernel comparison on one limb.
	n := 1 << logN
	q := chain.Moduli[0]
	x, y := p1.Limbs[0], p2.Limbs[0]
	dst := make([]uint64, n)
	kern := func(fn func()) float64 {
		fn() // warm-up
		const reps = 50
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(reps*n)
	}
	rep.Kernels["div64"] = kern(func() {
		for i := 0; i < n; i++ {
			dst[i] = rns.MulMod(x[i], y[i], q)
		}
	})
	bp := rns.NewBarrettParams(q)
	rep.Kernels["barrett"] = kern(func() {
		for i := 0; i < n; i++ {
			dst[i] = bp.MulMod(x[i], y[i])
		}
	})
	w0 := y[0]
	ws := rns.ShoupPrecomp(w0, q)
	rep.Kernels["shoup"] = kern(func() {
		for i := 0; i < n; i++ {
			dst[i] = rns.MulModShoup(x[i], w0, ws, q)
		}
	})

	rep.PoolAllocs["new_poly"] = allocsPerOp(func() {
		_ = r.NewPoly(chain)
	})
	rep.PoolAllocs["get_put"] = allocsPerOp(func() {
		p := r.GetPoly(chain)
		r.PutPoly(p)
	})

	if serveBench {
		rps, err := serveRPS(2 * iters)
		if err != nil {
			return fmt.Errorf("serve benchmark: %w", err)
		}
		rep.ServeRPS = rps
		mrps, err := serveManyTenantRPS(2 * iters)
		if err != nil {
			return fmt.Errorf("many-tenant serve benchmark: %w", err)
		}
		rep.ServeManyTenantRPS = mrps
	}

	rep.WallSeconds = time.Since(start).Seconds()
	if compare != "" {
		// Regression-check mode: nothing is written, the measured numbers are
		// judged against the committed baseline.
		return compareReports(rep, compare, tolerance)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (host cores %d, %d worker configs, %.1fs)\n",
		out, rep.HostCores, len(rep.Runs), rep.WallSeconds)
	return nil
}

// serveRPS measures end-to-end serving throughput: a catalog registry
// (compiled keyswitch plans, pooled ring buffers) serving single
// `square` requests back to back through internal/serve's admission →
// worker slot → executor path. Small ring (logN=8, 4 levels) on purpose —
// this gate watches the serving hot path's constant factors and
// allocation discipline, not transform asymptotics, which the per-op rows
// cover.
func serveRPS(reqs int) (float64, error) {
	lit := workloads.ServeParamsLiteral(8, 4, 20260805)
	reg, err := serve.NewRegistry(serve.RegistryConfig{Literal: lit})
	if err != nil {
		return 0, err
	}
	params := reg.Params
	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		return 0, err
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		return 0, err
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		return 0, err
	}
	// One key set serving the whole catalog: the union of every compiled
	// program's rotation set.
	rotSet := map[int]bool{}
	for _, name := range reg.ProgramNames() {
		p, _ := reg.Program(name)
		for _, k := range p.Rotations {
			rotSet[k] = true
		}
	}
	rots := make([]int, 0, len(rotSet))
	for k := range rotSet {
		rots = append(rots, k)
	}
	sort.Ints(rots)
	rtks, err := kg.GenRotationKeySet(sk, rots, false)
	if err != nil {
		return 0, err
	}
	keys := map[string]*ckks.EvalKey{"rlk": rlk}
	for k, key := range rtks.Keys {
		keys[fmt.Sprintf("rot:%d", k)] = key
	}
	const tenant = "corebench"
	if err := reg.RegisterTenant(tenant, keys); err != nil {
		return 0, err
	}
	core := serve.NewCore(reg, serve.Config{Workers: 2})
	defer core.Close(context.Background())
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk)
	v := make([]complex128, params.Slots())
	for i := range v {
		v[i] = complex(float64(i%7)/7-0.5, float64(i%5)/5-0.5)
	}
	pt, err := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		return 0, err
	}
	ct, err := encr.Encrypt(pt)
	if err != nil {
		return 0, err
	}
	// Warm the machine pool, plan caches and frame buffers.
	if _, err := core.Submit(context.Background(), "square", tenant, ct); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < reqs; i++ {
		if _, err := core.Submit(context.Background(), "square", tenant, ct); err != nil {
			return 0, err
		}
	}
	return float64(reqs) / time.Since(t0).Seconds(), nil
}

// serveManyTenantRPS measures serving throughput under key-cache churn:
// 8 tenants, each with its own independently generated key bundle, a key
// budget sized to keep only 2 bundles resident, and a Zipf tenant draw
// per request. Hot tenants should be cache hits; tail tenants force
// evictions and spill reloads — the number
// this row guards is how little that churn costs end to end.
func serveManyTenantRPS(reqs int) (float64, error) {
	lit := workloads.ServeParamsLiteral(8, 4, 20260805)
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return 0, err
	}
	kg := ckks.NewKeyGenerator(params)
	const tenants = 8
	type tenantCrypto struct {
		keys map[string]*ckks.EvalKey
		ct   *ckks.Ciphertext
	}
	enc := ckks.NewEncoder(params)
	v := make([]complex128, params.Slots())
	for i := range v {
		v[i] = complex(float64(i%7)/7-0.5, float64(i%5)/5-0.5)
	}
	tcs := make([]tenantCrypto, tenants)
	var bundleSize int64
	for i := range tcs {
		sk, err := kg.GenSecretKey()
		if err != nil {
			return 0, err
		}
		pk, err := kg.GenPublicKey(sk)
		if err != nil {
			return 0, err
		}
		rlk, err := kg.GenRelinKey(sk)
		if err != nil {
			return 0, err
		}
		tcs[i].keys = map[string]*ckks.EvalKey{"rlk": rlk}
		pt, err := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
		if err != nil {
			return 0, err
		}
		if tcs[i].ct, err = ckks.NewEncryptor(params, pk).Encrypt(pt); err != nil {
			return 0, err
		}
		if i == 0 {
			var buf bytes.Buffer
			if err := serve.WriteKeyBundle(&buf, tcs[i].keys); err != nil {
				return 0, err
			}
			bundleSize = int64(buf.Len())
		}
	}
	spillDir, err := os.MkdirTemp("", "corebench-keyspill-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(spillDir)
	// Budget of 2.5 bundles: exactly 2 tenants resident, 6 spilled.
	reg, err := serve.NewRegistry(serve.RegistryConfig{
		Literal:        lit,
		KeyBudgetBytes: bundleSize*2 + bundleSize/2,
		KeySpillDir:    spillDir,
	})
	if err != nil {
		return 0, err
	}
	for i := range tcs {
		if err := reg.RegisterTenant(fmt.Sprintf("corebench-%d", i), tcs[i].keys); err != nil {
			return 0, err
		}
	}
	core := serve.NewCore(reg, serve.Config{Workers: 2})
	defer core.Close(context.Background())
	// Warm the plan caches with the hottest tenant.
	if _, err := core.Submit(context.Background(), "square", "corebench-0", tcs[0].ct); err != nil {
		return 0, err
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(20260805)), 1.2, 1, tenants-1)
	t0 := time.Now()
	for i := 0; i < reqs; i++ {
		ti := int(zipf.Uint64())
		if _, err := core.Submit(context.Background(), "square", fmt.Sprintf("corebench-%d", ti), tcs[ti].ct); err != nil {
			return 0, err
		}
	}
	return float64(reqs) / time.Since(t0).Seconds(), nil
}

// compareReports checks every hot op of the fresh report against the
// baseline file: a measured ns/op more than tolerance above the baseline
// (per matching worker count) is a regression and fails the run. Ops the
// baseline lacks are reported as new and skipped.
func compareReports(fresh report, baselinePath string, tolerance float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	baseRuns := map[int]workerRun{}
	for _, r := range base.Runs {
		baseRuns[r.Workers] = r
	}
	var regressions []string
	for _, r := range fresh.Runs {
		br, ok := baseRuns[r.Workers]
		if !ok {
			fmt.Printf("workers=%d: no baseline run, skipping\n", r.Workers)
			continue
		}
		for name, t := range r.Ops {
			bt, ok := br.Ops[name]
			if !ok || bt.NsPerOp <= 0 {
				fmt.Printf("workers=%d %s: new op, no baseline\n", r.Workers, name)
				continue
			}
			ratio := float64(t.NsPerOp) / float64(bt.NsPerOp)
			status := "ok"
			if ratio > 1+tolerance {
				status = "REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("%s @%dw: %d ns/op vs baseline %d (%.2fx > %.2fx allowed)",
						name, r.Workers, t.NsPerOp, bt.NsPerOp, ratio, 1+tolerance))
			}
			fmt.Printf("workers=%d %-14s %12d ns/op  baseline %12d  ratio %.3f  %s\n",
				r.Workers, name, t.NsPerOp, bt.NsPerOp, ratio, status)
		}
	}
	// Pool allocation counters are near-binary health signals (a warm
	// get/put cycle allocates ~0 times); allow half an allocation of
	// measurement slack over the baseline before calling regression.
	for name, bv := range base.PoolAllocs {
		fv, ok := fresh.PoolAllocs[name]
		if !ok {
			continue
		}
		status := "ok"
		if fv > bv+0.5 {
			status = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("poly_pool_allocs_per_op[%s]: %.2f vs baseline %.2f", name, fv, bv))
		}
		fmt.Printf("pool_allocs    %-14s %8.2f  baseline %8.2f  %s\n", name, fv, bv, status)
	}
	// serve_rps is a throughput (higher is better): the fresh rate must
	// stay within tolerance of the baseline rate.
	switch {
	case base.ServeRPS > 0 && fresh.ServeRPS > 0:
		ratio := base.ServeRPS / fresh.ServeRPS
		status := "ok"
		if ratio > 1+tolerance {
			status = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("serve_rps: %.1f req/s vs baseline %.1f (%.2fx slower > %.2fx allowed)",
					fresh.ServeRPS, base.ServeRPS, ratio, 1+tolerance))
		}
		fmt.Printf("serve_rps      %12.1f req/s   baseline %12.1f  ratio %.3f  %s\n",
			fresh.ServeRPS, base.ServeRPS, ratio, status)
	case base.ServeRPS > 0:
		fmt.Println("serve_rps: baseline present, fresh run skipped (-serve=false)")
	case fresh.ServeRPS > 0:
		fmt.Println("serve_rps: new metric, no baseline")
	}
	// serve_manytenant_rps guards the cost of key-cache churn the same way.
	switch {
	case base.ServeManyTenantRPS > 0 && fresh.ServeManyTenantRPS > 0:
		ratio := base.ServeManyTenantRPS / fresh.ServeManyTenantRPS
		status := "ok"
		if ratio > 1+tolerance {
			status = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("serve_manytenant_rps: %.1f req/s vs baseline %.1f (%.2fx slower > %.2fx allowed)",
					fresh.ServeManyTenantRPS, base.ServeManyTenantRPS, ratio, 1+tolerance))
		}
		fmt.Printf("serve_manytenant_rps %6.1f req/s   baseline %12.1f  ratio %.3f  %s\n",
			fresh.ServeManyTenantRPS, base.ServeManyTenantRPS, ratio, status)
	case base.ServeManyTenantRPS > 0:
		fmt.Println("serve_manytenant_rps: baseline present, fresh run skipped (-serve=false)")
	case fresh.ServeManyTenantRPS > 0:
		fmt.Println("serve_manytenant_rps: new metric, no baseline")
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d op(s) regressed beyond %.0f%% tolerance:\n  %s",
			len(regressions), tolerance*100, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("all ops within %.0f%% of %s\n", tolerance*100, baselinePath)
	return nil
}

// allocsPerOp measures heap allocations per call of fn (single-threaded).
func allocsPerOp(fn func()) float64 {
	const reps = 200
	fn() // warm pools
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / reps
}

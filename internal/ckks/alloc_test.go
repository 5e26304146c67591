package ckks

import (
	"runtime"
	"testing"

	"cinnamon/internal/ntt"
	"cinnamon/internal/ring"
)

// TestKeySwitchPlannedZeroAlloc pins the serving-path memory discipline:
// once the per-level plan is compiled and the ring pools are warm, a
// planned keyswitch performs zero heap allocations.
func TestKeySwitchPlannedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is perturbed by the race detector")
	}
	params := ksTestParams(t)
	r := params.Ring
	kg := NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(params)
	encryptor := NewEncryptor(params, pk)
	ev := NewEvaluator(params, rlk, nil)
	vals := make([]complex128, params.Slots())
	for i := range vals {
		vals[i] = complex(float64(i%3), float64(i%2))
	}
	pt, err := enc.Encode(vals, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := encryptor.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	if err := params.CompilePlans(); err != nil {
		t.Fatal(err)
	}
	// Warm the pools.
	for i := 0; i < 3; i++ {
		f0, f1, err := ev.KeySwitch(ct.C1, rlk)
		if err != nil {
			t.Fatal(err)
		}
		r.PutPoly(f0)
		r.PutPoly(f1)
	}
	allocs := testing.AllocsPerRun(10, func() {
		f0, f1, err := ev.KeySwitch(ct.C1, rlk)
		if err != nil {
			t.Fatal(err)
		}
		r.PutPoly(f0)
		r.PutPoly(f1)
	})
	if allocs != 0 {
		t.Fatalf("warm planned keyswitch allocated %.1f times per op, want 0", allocs)
	}
}

// TestNewEvaluatorAllocCeiling: serving builds an evaluator per request, so
// a warm NewEvaluator must build no tables (no encoder among them): one
// allocation, the evaluator itself.
func TestNewEvaluatorAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is perturbed by the race detector")
	}
	tc := newTestContext(t, nil)
	if a := testing.AllocsPerRun(50, func() { _ = NewEvaluator(tc.params, tc.rlk, nil) }); a > 1 {
		t.Fatalf("warm NewEvaluator: %.0f allocations, want at most 1", a)
	}
}

// TestServingGOMAXPROCSZeroAlloc counts heap allocations of a warm batched
// forward+inverse transform and a warm keyswitch at GOMAXPROCS 2, the way
// a serving process runs them. testing.AllocsPerRun cannot: it pins
// GOMAXPROCS to 1 while it counts, so a limb loop that only forks on a
// multi-core host would escape every other zero-allocation test.
func TestServingGOMAXPROCSZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is perturbed by the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	params, err := NewParameters(ParametersLiteral{
		LogN:     12,
		LogQ:     []int{50, 40, 40},
		LogP:     []int{55, 55},
		LogScale: 40,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := params.Ring
	if err := params.CompilePlans(); err != nil {
		t.Fatal(err)
	}

	tables := make([]*ntt.Table, params.QBasis.Len())
	for i, q := range params.QBasis.Moduli {
		tables[i] = r.TableOf(q)
	}
	pl, err := ntt.NewBatchPlan(tables)
	if err != nil {
		t.Fatal(err)
	}
	limbs := ring.NewSampler(r, 61).UniformPoly(params.QBasis).Limbs
	if got := mallocsPerRun(100, func() {
		pl.Forward(limbs)
		pl.Inverse(limbs)
	}); got != 0 {
		t.Errorf("warm batched forward+inverse at GOMAXPROCS 2: %.1f mallocs per run, want 0", got)
	}

	kg := NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(params, rlk, nil)
	ct := randomCiphertext(params, ring.NewSampler(r, 67), params.MaxLevel())
	if got := mallocsPerRun(50, func() {
		f0, f1, err := ev.KeySwitch(ct.C1, rlk)
		if err != nil {
			t.Fatal(err)
		}
		r.PutPoly(f0)
		r.PutPoly(f1)
	}); got != 0 {
		t.Errorf("warm keyswitch at GOMAXPROCS 2: %.1f mallocs per run, want 0", got)
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS 1 pin: it
// collects the garbage of earlier tests, so no cycle empties the ring's
// sync.Pools mid-count, warms fn up three times, then returns the heap
// allocations per call over runs calls, rounded down as AllocsPerRun
// rounds. The rounding absorbs the odd pool refill when the goroutine
// changes P (a pool's private slot on the old P cannot be stolen); a limb
// loop that allocates on every call cannot hide in it.
func mallocsPerRun(runs int, fn func()) float64 {
	runtime.GC()
	for i := 0; i < 3; i++ {
		fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

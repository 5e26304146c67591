package ckks

import (
	"testing"

	"cinnamon/internal/parallel"
)

// TestKeySwitchPlannedZeroAlloc pins the serving-path memory discipline:
// once the per-level plan is compiled and the ring pools are warm, a
// planned keyswitch performs zero heap allocations. Runs at one worker —
// the serial branches of every two-branch hot loop must not materialize
// their fan-out closures.
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
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	parallel.SetWorkers(1)
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

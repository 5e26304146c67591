package bootstrap

import (
	"math/rand"
	"sync"
	"testing"

	"cinnamon/internal/ckks"
)

// TestConsumedExitLevel pins the exact level budget of the default
// circuit: ScaleUp+ModRaise cost nothing, CoeffToSlot 1, EvalMod
// ceil(log2(Degree+1)) + DoubleAngle + its own rescale structure (3 fixed
// + chebDepth + r), SlotToCoeff 1 — totalling 3 + 6 + 3 = 12 for the
// default Degree-39, r=3 configuration.
func TestConsumedExitLevel(t *testing.T) {
	params, _ := bootstrapParams(t)
	pre, err := NewPrecomp(params, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := pre.Consumed(); got != 12 {
		t.Fatalf("Consumed() = %d, want 12 for the default config", got)
	}
	if got, want := pre.ExitLevel(), params.MaxLevel()-12; got != want {
		t.Fatalf("ExitLevel() = %d, want %d", got, want)
	}

	cfg := DefaultConfig()
	cfg.ArcsineCorrection = true
	preA, err := NewPrecomp(params, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := preA.Consumed(); got != 15 {
		t.Fatalf("Consumed() with arcsine = %d, want 15", got)
	}
}

// refreshFixture is a shared cold Precomp at a small ring with two tenants
// (distinct key sets) and two level-0 ciphertexts each.
type refreshFixture struct {
	bs  [2]*Bootstrapper
	cts [2][2]*ckks.Ciphertext
}

func newRefreshFixture(t testing.TB) *refreshFixture {
	t.Helper()
	params, _ := bootstrapParamsAt(t, 7)
	pre, err := NewPrecomp(params, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
	enc := ckks.NewEncoder(params)
	f := &refreshFixture{}
	for ti := range f.bs {
		sk, err := kg.GenSecretKey()
		if err != nil {
			t.Fatal(err)
		}
		pk, err := kg.GenPublicKey(sk)
		if err != nil {
			t.Fatal(err)
		}
		rlk, err := kg.GenRelinKey(sk)
		if err != nil {
			t.Fatal(err)
		}
		rtks, err := kg.GenRotationKeySet(sk, pre.Rotations(), true)
		if err != nil {
			t.Fatal(err)
		}
		if f.bs[ti], err = pre.Bind(ckks.NewEvaluator(params, rlk, rtks)); err != nil {
			t.Fatal(err)
		}
		for ci := range f.cts[ti] {
			rng := rand.New(rand.NewSource(int64(7 + 2*ti + ci)))
			v := make([]complex128, params.Slots())
			for i := range v {
				v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			}
			pt, err := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
			if err != nil {
				t.Fatal(err)
			}
			ct, err := ckks.NewEncryptor(params, pk).Encrypt(pt)
			if err != nil {
				t.Fatal(err)
			}
			if f.cts[ti][ci], err = f.bs[ti].Evaluator().DropLevel(ct, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f
}

func sameCiphertext(a, b *ckks.Ciphertext) bool {
	return a.Scale == b.Scale && a.Level() == b.Level() && a.C0.Equal(b.C0) && a.C1.Equal(b.C1)
}

// TestConcurrentRefreshesBitIdentical is the contract the serving runtime's
// refresh hook leans on: Bootstrap calls racing on one shared, cold Precomp
// — two tenants with distinct keys, two ciphertexts each, four goroutines,
// so both "same Bootstrapper" and "different Bootstrapper" pairs overlap and
// the first diagonal encodes are contended — return limb for limb what the
// same ciphertexts return bootstrapped one after the other afterwards.
func TestConcurrentRefreshesBitIdentical(t *testing.T) {
	f := newRefreshFixture(t)
	var wg sync.WaitGroup
	var got [2][2]*ckks.Ciphertext
	var errs [2][2]error
	for ti := range f.bs {
		for ci := range f.cts[ti] {
			wg.Add(1)
			go func(ti, ci int) {
				defer wg.Done()
				got[ti][ci], errs[ti][ci] = f.bs[ti].Bootstrap(f.cts[ti][ci])
			}(ti, ci)
		}
	}
	wg.Wait()
	for ti := range f.bs {
		for ci := range f.cts[ti] {
			if errs[ti][ci] != nil {
				t.Fatalf("concurrent bootstrap tenant %d ct %d: %v", ti, ci, errs[ti][ci])
			}
			want, err := f.bs[ti].Bootstrap(f.cts[ti][ci])
			if err != nil {
				t.Fatalf("sequential bootstrap tenant %d ct %d: %v", ti, ci, err)
			}
			if !sameCiphertext(got[ti][ci], want) {
				t.Fatalf("tenant %d ct %d: concurrent bootstrap is not bit-identical to sequential", ti, ci)
			}
		}
	}
}

// TestBootstrapBatchBitIdentical pins the vestigial BootstrapBatch shim to
// its contract: each item gets exactly what Bootstrap returns, and a failing
// item (wrong level, nil Bootstrapper) fails alone.
func TestBootstrapBatchBitIdentical(t *testing.T) {
	f := newRefreshFixture(t)
	solo, err := f.bs[1].Bootstrap(f.cts[1][0])
	if err != nil {
		t.Fatal(err)
	}
	bad := &BatchItem{BS: f.bs[0], CT: solo} // wrong level (not 0)
	orphan := &BatchItem{CT: f.cts[0][0]}
	good := &BatchItem{BS: f.bs[1], CT: f.cts[1][0]}
	BootstrapBatch([]*BatchItem{bad, orphan, good})
	if bad.Err == nil || bad.Out != nil {
		t.Fatal("exit-level input accepted by BootstrapBatch")
	}
	if orphan.Err == nil {
		t.Fatal("item without a Bootstrapper accepted by BootstrapBatch")
	}
	if good.Err != nil {
		t.Fatalf("good item failed alongside bad ones: %v", good.Err)
	}
	if !sameCiphertext(good.Out, solo) {
		t.Fatal("BootstrapBatch result differs from Bootstrap")
	}
}

package bootstrap

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"cinnamon/internal/ckks"
)

func TestFitChebyshevAccuracy(t *testing.T) {
	f := func(x float64) float64 { return math.Cos(math.Pi * (x - 0.5) / 8) }
	c := FitChebyshev(f, -33, 33, 39)
	for i := 0; i <= 200; i++ {
		x := -33 + 66*float64(i)/200
		if e := math.Abs(c.EvalFloat(x) - f(x)); e > 1e-9 {
			t.Fatalf("x=%f: chebyshev error %g", x, e)
		}
	}
}

func TestChebyshevDoubleAngleReference(t *testing.T) {
	// The EvalMod construction in float: Chebyshev of the folded cosine +
	// r double angles must reproduce sin(π·u)/1 over the interval.
	K, r, deg := 16, 3, 39
	bound := float64(2*K + 1)
	c := FitChebyshev(func(u float64) float64 {
		return math.Cos(math.Pi * (u - 0.5) / math.Exp2(float64(r)))
	}, -bound, bound, deg)
	for i := 0; i <= 500; i++ {
		u := -bound + 2*bound*float64(i)/500
		v := c.EvalFloat(u)
		for k := 0; k < r; k++ {
			v = 2*v*v - 1
		}
		if e := math.Abs(v - math.Sin(math.Pi*u)); e > 1e-6 {
			t.Fatalf("u=%f: folded sine error %g", u, e)
		}
	}
}

func TestLinearTransformPlainApply(t *testing.T) {
	n := 8
	rng := rand.New(rand.NewSource(3))
	m := make([][]complex128, n)
	for i := range m {
		m[i] = make([]complex128, n)
		for j := range m[i] {
			m[i][j] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
	}
	lt, err := NewLinearTransform(m)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64(), rng.Float64())
	}
	got := lt.Apply(v)
	for i := 0; i < n; i++ {
		var want complex128
		for j := 0; j < n; j++ {
			want += m[i][j] * v[j]
		}
		if cmplx.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("row %d: diag apply %v != matmul %v", i, got[i], want)
		}
	}
}

func TestNewLinearTransformValidation(t *testing.T) {
	if _, err := NewLinearTransform(nil); err == nil {
		t.Fatal("expected empty matrix error")
	}
	if _, err := NewLinearTransform([][]complex128{{1, 2}, {3}}); err == nil {
		t.Fatal("expected non-square error")
	}
	bad := make([][]complex128, 3)
	for i := range bad {
		bad[i] = make([]complex128, 3)
	}
	if _, err := NewLinearTransform(bad); err == nil {
		t.Fatal("expected non-power-of-two error")
	}
}

func ltTestParams(t testing.TB) (*ckks.Parameters, *ckks.SecretKey) {
	t.Helper()
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     8,
		LogQ:     []int{55, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
		Seed:     77,
	})
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	return params, sk
}

// strictEvaluate is the oracle for LinearTransform.Evaluate's inner sums: the
// same baby-step/giant-step walk with each inner sum folded the strict way —
// one MulPlain per diagonal and one Add per term, each a fresh ciphertext.
func strictEvaluate(t *testing.T, lt *LinearTransform, ev *ckks.Evaluator, enc *ckks.Encoder, ct *ckks.Ciphertext) *ckks.Ciphertext {
	t.Helper()
	level, scale := ct.Level(), ev.TopModulus(ct.Level())
	var acc *ckks.Ciphertext
	for i := 0; i*lt.N1 < lt.Slots; i++ {
		var inner *ckks.Ciphertext
		for j := 0; j < lt.N1; j++ {
			if _, ok := lt.Diags[i*lt.N1+j]; !ok {
				continue
			}
			pt, err := lt.diagPlaintext(enc, level, i*lt.N1+j, scale)
			if err != nil {
				t.Fatal(err)
			}
			rot, err := ev.Rotate(ct, j)
			if err != nil {
				t.Fatal(err)
			}
			term, err := ev.MulPlain(rot, pt)
			if err != nil {
				t.Fatal(err)
			}
			if inner == nil {
				inner = term
			} else if inner, err = ev.Add(inner, term); err != nil {
				t.Fatal(err)
			}
		}
		if inner == nil {
			continue
		}
		var err error
		if i != 0 {
			if inner, err = ev.Rotate(inner, i*lt.N1); err != nil {
				t.Fatal(err)
			}
		}
		if acc == nil {
			acc = inner
		} else if acc, err = ev.Add(acc, inner); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// TestLinearTransformHomomorphic: Evaluate on a dense matrix and on one whose
// diagonals leave whole giant-step blocks empty decrypts to the plaintext
// product, and is limb for limb what the strict chain returns.
func TestLinearTransformHomomorphic(t *testing.T) {
	params, sk := ltTestParams(t)
	n := 16
	rng := rand.New(rand.NewSource(5))
	dense := make([][]complex128, n)
	banded := make([][]complex128, n)
	for i := range dense {
		dense[i] = make([]complex128, n)
		banded[i] = make([]complex128, n)
		for j := range dense[i] {
			dense[i][j] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			// Diagonals 0, 1, 2, 3, 4 and 13.
			if d := (j - i + n) % n; d <= 4 || d == 13 {
				banded[i][j] = dense[i][j]
			}
		}
	}
	kg := ckks.NewKeyGenerator(params)
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	enc := ckks.NewEncoder(params)
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	encr := ckks.NewEncryptor(params, pk)
	decr := ckks.NewDecryptor(params, sk)

	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	pt, err := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string][][]complex128{"dense": dense, "banded": banded} {
		lt, err := NewLinearTransform(m)
		if err != nil {
			t.Fatal(err)
		}
		rtks, err := kg.GenRotationKeySet(sk, lt.Rotations(), false)
		if err != nil {
			t.Fatal(err)
		}
		ev := ckks.NewEvaluator(params, rlk, rtks)
		out, err := lt.Evaluate(ev, enc, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCiphertext(out, strictEvaluate(t, lt, ev, enc, ct)) {
			t.Fatalf("%s: Evaluate is not limb-identical to the strict chain", name)
		}
		out, err = ev.Rescale(out)
		if err != nil {
			t.Fatal(err)
		}
		ptOut, err := decr.Decrypt(out)
		if err != nil {
			t.Fatal(err)
		}
		got, err := enc.Decode(ptOut, n)
		if err != nil {
			t.Fatal(err)
		}
		want := lt.Apply(v)
		for i := range want {
			if e := cmplx.Abs(got[i] - want[i]); e > 1e-3 {
				t.Fatalf("%s: slot %d: homomorphic LT error %g", name, i, e)
			}
		}
	}
}

func TestEvalChebyshevHomomorphic(t *testing.T) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     9,
		LogQ:     []int{55, 45, 45, 45, 45, 45, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
		Seed:     88,
	})
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
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
	ev := ckks.NewEvaluator(params, rlk, nil)
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk)
	decr := ckks.NewDecryptor(params, sk)

	cheb := FitChebyshev(func(x float64) float64 { return math.Sin(x) / (1 + x*x) }, -4, 4, 15)
	slots := 32
	rng := rand.New(rand.NewSource(6))
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(rng.Float64()*8-4, 0)
	}
	pt, err := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := EvalChebyshev(ev, ct, cheb)
	if err != nil {
		t.Fatal(err)
	}
	ptOut, err := decr.Decrypt(out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.Decode(ptOut, slots)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		want := cheb.EvalFloat(real(v[i]))
		if e := cmplx.Abs(got[i] - complex(want, 0)); e > 1e-3 {
			t.Fatalf("slot %d (x=%f): got %v, want %f (err %g)", i, real(v[i]), got[i], want, e)
		}
	}
}

func bootstrapParams(t testing.TB) (*ckks.Parameters, *ckks.SecretKey) {
	return bootstrapParamsAt(t, 10)
}

func bootstrapParamsAt(t testing.TB, logN int) (*ckks.Parameters, *ckks.SecretKey) {
	t.Helper()
	logQ := []int{60}
	for i := 0; i < 16; i++ {
		logQ = append(logQ, 45)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:          logN,
		LogQ:          logQ,
		LogP:          []int{58, 58, 58, 58},
		LogScale:      45,
		Seed:          99,
		HammingWeight: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	return params, sk
}

func TestBootstrapEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap end-to-end is expensive")
	}
	params, sk := bootstrapParams(t)
	bs, err := NewBootstrapper(params, sk, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	encr := ckks.NewEncryptor(params, pk)
	decr := ckks.NewDecryptor(params, sk)
	enc := ckks.NewEncoder(params)

	slots := params.Slots()
	rng := rand.New(rand.NewSource(17))
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	pt, err := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust the budget: drop straight to level 0.
	low, err := bs.Evaluator().DropLevel(ct, 0)
	if err != nil {
		t.Fatal(err)
	}
	refreshed, err := bs.Bootstrap(low)
	if err != nil {
		t.Fatal(err)
	}
	if refreshed.Level() < 1 {
		t.Fatalf("bootstrap exited at level %d, want ≥ 1", refreshed.Level())
	}
	t.Logf("bootstrap: exit level %d of %d", refreshed.Level(), params.MaxLevel())
	ptOut, err := decr.Decrypt(refreshed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.Decode(ptOut, slots)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range v {
		if e := cmplx.Abs(got[i] - v[i]); e > worst {
			worst = e
		}
	}
	t.Logf("bootstrap: worst slot error %g", worst)
	if worst > 5e-2 {
		t.Fatalf("bootstrap worst-slot error %g too large", worst)
	}
	// The refreshed ciphertext must be usable: square it once.
	sq, err := bs.Evaluator().MulRelin(refreshed, refreshed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs.Evaluator().Rescale(sq); err != nil {
		t.Fatal(err)
	}
}

// TestBootstrapArcsineCorrection exercises the optional distortion
// correction: it must stay correct and consume two extra levels.
func TestBootstrapArcsineCorrection(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap end-to-end is expensive")
	}
	params, sk := bootstrapParams(t)
	cfg := DefaultConfig()
	cfg.ArcsineCorrection = true
	bs, err := NewBootstrapper(params, sk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	encr := ckks.NewEncryptor(params, pk)
	decr := ckks.NewDecryptor(params, sk)
	enc := ckks.NewEncoder(params)
	slots := params.Slots()
	rng := rand.New(rand.NewSource(29))
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	pt, _ := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
	ct, err := encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	low, err := bs.Evaluator().DropLevel(ct, 0)
	if err != nil {
		t.Fatal(err)
	}
	refreshed, err := bs.Bootstrap(low)
	if err != nil {
		t.Fatal(err)
	}
	ptOut, err := decr.Decrypt(refreshed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.Decode(ptOut, slots)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range v {
		if e := cmplx.Abs(got[i] - v[i]); e > worst {
			worst = e
		}
	}
	t.Logf("arcsine bootstrap: exit level %d, worst error %g", refreshed.Level(), worst)
	if worst > 5e-2 {
		t.Fatalf("arcsine bootstrap error %g", worst)
	}
}

func TestBootstrapInputValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap setup is expensive")
	}
	params, sk := bootstrapParams(t)
	bs, err := NewBootstrapper(params, sk, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	encr := ckks.NewEncryptor(params, pk)
	enc := ckks.NewEncoder(params)
	pt, err := enc.Encode(make([]complex128, params.Slots()), params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs.Bootstrap(ct); err == nil {
		t.Fatal("expected error for non-level-0 input")
	}
}

func TestNewBootstrapperRequiresSparseSecret(t *testing.T) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 8, LogQ: []int{55, 45}, LogP: []int{58}, LogScale: 45,
	})
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBootstrapper(params, sk, DefaultConfig()); err == nil {
		t.Fatal("expected sparse-secret requirement error")
	}
}

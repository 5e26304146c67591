package bootstrap

import (
	"math"
	"math/big"
	"math/cmplx"
	"math/rand"
	"testing"

	"cinnamon/internal/ckks"
)

// TestBootstrapStages decrypts after each pipeline stage and compares with
// the expected plaintext-side computation. It is a diagnostic harness as
// much as a regression test: a failure pinpoints the first broken stage.
func TestBootstrapStages(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	params, sk := bootstrapParams(t)
	bs, err := NewBootstrapper(params, sk, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
	pk, _ := kg.GenPublicKey(sk)
	encr := ckks.NewEncryptor(params, pk)
	decr := ckks.NewDecryptor(params, sk)
	enc := ckks.NewEncoder(params)
	slots := params.Slots()
	rng := rand.New(rand.NewSource(17))
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	pt, _ := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
	ct, _ := encr.Encrypt(pt)
	low, _ := bs.Evaluator().DropLevel(ct, 0)

	q0f := float64(params.QBasis.Moduli[0])
	_ = params.DefaultScale()
	nh := params.N() / 2

	// Stage 1: ModRaise. Decrypt, read raw coefficients, and verify they
	// are Δ·τ(v) + q0·I with small integer I.
	up := bs.ev.ScaleUp(low, bs.pre.scaleUp)
	raised, err := bs.modRaise(up)
	if err != nil {
		t.Fatal(err)
	}
	ptR, _ := decr.Decrypt(raised)
	polyR := ptR.Poly.Copy()
	if err := params.Ring.INTT(polyR); err != nil {
		t.Fatal(err)
	}
	tau := append([]complex128(nil), v...)
	enc.SpecialFFTInv(tau)
	coeff := func(j int) float64 {
		c, err := polyR.CoeffToCentered(j)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := new(big.Float).SetInt(c).Float64()
		return f
	}
	// x values the EvalMod stage should see.
	xWant := make([]complex128, slots)
	maxI, maxFrac := 0.0, 0.0
	for j := 0; j < slots; j++ {
		re := coeff(j) / q0f
		im := coeff(j+nh) / q0f
		xWant[j] = complex(re, im)
		for _, u := range []float64{re, im} {
			i0 := math.Round(u)
			if math.Abs(i0) > maxI {
				maxI = math.Abs(i0)
			}
			if f := math.Abs(u - i0); f > maxFrac {
				maxFrac = f
			}
		}
	}
	t.Logf("stage1 modraise: max |I| = %.1f (K=%d), max |frac| = %g", maxI, bs.pre.cfg.K, maxFrac)
	if maxI > float64(bs.pre.cfg.K) {
		t.Fatalf("stage1: wrap count %f exceeds K", maxI)
	}
	// Fractional part should be Δ·τ(v)/q0-sized.
	for j := 0; j < slots; j++ {
		fr := real(xWant[j]) - math.Round(real(xWant[j]))
		want := real(tau[j]) * bs.pre.rho
		if math.Abs(fr-want) > 1e-3 {
			t.Fatalf("stage1: coeff %d frac %g, want %g", j, fr, want)
		}
	}

	// Stage 2: CoeffToSlot. Slots must now hold xWant.
	ts, err := bs.pre.c2s.Evaluate(bs.ev, bs.pre.enc, raised)
	if err != nil {
		t.Fatal(err)
	}
	if ts, err = bs.ev.Rescale(ts); err != nil {
		t.Fatal(err)
	}
	ptT, _ := decr.Decrypt(ts)
	gotT, err := enc.Decode(ptT, slots)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for j := range gotT {
		// CoeffToSlot leaves u = x/ρ in the slots.
		if e := cmplx.Abs(gotT[j]*complex(bs.pre.rho, 0) - xWant[j]); e > worst {
			worst = e
		}
	}
	t.Logf("stage2 c2s: worst slot error %g", worst)
	if worst > 1e-2 {
		t.Fatalf("stage2: CoeffToSlot error %g", worst)
	}

	// Stage 3: conjugation split + EvalMod on the real half.
	tc, err := bs.ev.Conjugate(ts)
	if err != nil {
		t.Fatal(err)
	}
	re2, err := bs.ev.Add(ts, tc)
	if err != nil {
		t.Fatal(err)
	}
	reMod, err := bs.evalMod(re2)
	if err != nil {
		t.Fatal(err)
	}
	ptM, _ := decr.Decrypt(reMod)
	gotM, err := enc.Decode(ptM, slots)
	if err != nil {
		t.Fatal(err)
	}
	worst = 0.0
	for j := range gotM {
		want := math.Sin(2 * math.Pi * real(xWant[j]))
		if e := cmplx.Abs(gotM[j] - complex(want, 0)); e > worst {
			worst = e
		}
	}
	t.Logf("stage3 evalmod: worst error %g (level %d)", worst, reMod.Level())
	if worst > 1e-2 {
		t.Fatalf("stage3: EvalMod error %g", worst)
	}

	// Stage 4: imaginary half + recombination.
	imDiff, err := bs.ev.Sub(tc, ts)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := bs.ev.MulByI(imDiff)
	if err != nil {
		t.Fatal(err)
	}
	imMod, err := bs.evalMod(im2)
	if err != nil {
		t.Fatal(err)
	}
	imI, err := bs.ev.MulByI(imMod)
	if err != nil {
		t.Fatal(err)
	}
	comb, err := bs.ev.Add(alignLevels(reMod, imI))
	if err != nil {
		t.Fatal(err)
	}
	ptC, _ := decr.Decrypt(comb)
	gotC, err := enc.Decode(ptC, slots)
	if err != nil {
		t.Fatal(err)
	}
	worst = 0.0
	for j := range gotC {
		want := complex(math.Sin(2*math.Pi*real(xWant[j])), math.Sin(2*math.Pi*imag(xWant[j])))
		if e := cmplx.Abs(gotC[j] - want); e > worst {
			worst = e
		}
	}
	t.Logf("stage4 recombine: worst error %g (level %d)", worst, comb.Level())
	if worst > 1e-2 {
		t.Fatalf("stage4: recombination error %g", worst)
	}

	// Stage 5: SlotToCoeff must reproduce the original v.
	out, err := bs.pre.s2c.Evaluate(bs.ev, bs.pre.enc, comb)
	if err != nil {
		t.Fatal(err)
	}
	if out, err = bs.ev.Rescale(out); err != nil {
		t.Fatal(err)
	}
	ptO, _ := decr.Decrypt(out)
	gotO, err := enc.Decode(ptO, slots)
	if err != nil {
		t.Fatal(err)
	}
	worst = 0.0
	for j := range gotO {
		if e := cmplx.Abs(gotO[j] - v[j]); e > worst {
			worst = e
		}
	}
	t.Logf("stage5 s2c: worst error %g (level %d)", worst, out.Level())
	if worst > 5e-2 {
		t.Fatalf("stage5: SlotToCoeff error %g", worst)
	}
}

package ring

import (
	"math/big"
	"math/rand"
	"testing"

	"cinnamon/internal/parallel"
	"cinnamon/internal/rns"
)

// newTestRing builds a small ring with nQ 45-bit chain moduli and nP 50-bit
// extension moduli; the universe holds both.
func newTestRing(t testing.TB, logN, nQ, nP int) (*Ring, rns.Basis, rns.Basis) {
	t.Helper()
	qPrimes, err := rns.GenerateNTTPrimes(45, logN, nQ)
	if err != nil {
		t.Fatal(err)
	}
	pPrimes, err := rns.GenerateNTTPrimes(50, logN, nP)
	if err != nil {
		t.Fatal(err)
	}
	qb := rns.MustBasis(qPrimes)
	pb := rns.MustBasis(pPrimes)
	uni, err := qb.Union(pb)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(1<<logN, uni)
	if err != nil {
		t.Fatal(err)
	}
	return r, qb, pb
}

func randPoly(r *Ring, b rns.Basis, seed int64) *Poly {
	s := NewSampler(r, seed)
	return s.UniformPoly(b)
}

func TestAddSubNegAlgebra(t *testing.T) {
	r, qb, _ := newTestRing(t, 6, 3, 2)
	a := randPoly(r, qb, 1)
	b := randPoly(r, qb, 2)
	sum := r.NewPoly(qb)
	if err := r.Add(a, b, sum); err != nil {
		t.Fatal(err)
	}
	diff := r.NewPoly(qb)
	if err := r.Sub(sum, b, diff); err != nil {
		t.Fatal(err)
	}
	if !diff.Equal(a) {
		t.Fatal("(a+b)-b != a")
	}
	neg := r.NewPoly(qb)
	r.Neg(a, neg)
	zero := r.NewPoly(qb)
	if err := r.Add(a, neg, zero); err != nil {
		t.Fatal(err)
	}
	for j := range zero.Limbs {
		for i := range zero.Limbs[j] {
			if zero.Limbs[j][i] != 0 {
				t.Fatal("a + (-a) != 0")
			}
		}
	}
}

func TestDomainAndBasisMismatchErrors(t *testing.T) {
	r, qb, pb := newTestRing(t, 4, 2, 1)
	a := randPoly(r, qb, 1)
	b := randPoly(r, qb, 2)
	if err := r.NTT(b); err != nil {
		t.Fatal(err)
	}
	out := r.NewPoly(qb)
	if err := r.Add(a, b, out); err == nil {
		t.Fatal("expected domain mismatch error")
	}
	c := randPoly(r, pb, 3)
	if err := r.Add(a, c, out); err == nil {
		t.Fatal("expected basis mismatch error")
	}
	if err := r.MulCoeffs(a, a, out); err == nil {
		t.Fatal("expected NTT-domain-required error")
	}
}

// TestMulCoeffsMatchesSchoolbook verifies ring multiplication against a
// big.Int schoolbook negacyclic convolution on the CRT-reconstructed values.
func TestMulCoeffsMatchesSchoolbook(t *testing.T) {
	r, qb, _ := newTestRing(t, 4, 2, 1)
	n := r.N
	Q := qb.Product()
	a := randPoly(r, qb, 4)
	b := randPoly(r, qb, 5)
	// Reference product.
	av := make([]*big.Int, n)
	bv := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		var err error
		if av[i], err = a.CoeffToBig(i); err != nil {
			t.Fatal(err)
		}
		if bv[i], err = b.CoeffToBig(i); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]*big.Int, n)
	for i := range want {
		want[i] = new(big.Int)
	}
	tmp := new(big.Int)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tmp.Mul(av[i], bv[j])
			if i+j < n {
				want[i+j].Add(want[i+j], tmp)
			} else {
				want[i+j-n].Sub(want[i+j-n], tmp)
			}
		}
	}
	for i := range want {
		want[i].Mod(want[i], Q)
	}
	// RNS/NTT product.
	if err := r.NTT(a); err != nil {
		t.Fatal(err)
	}
	if err := r.NTT(b); err != nil {
		t.Fatal(err)
	}
	prod := r.NewPoly(qb)
	if err := r.MulCoeffs(a, b, prod); err != nil {
		t.Fatal(err)
	}
	if err := r.INTT(prod); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := prod.CoeffToBig(i)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want[i]) != 0 {
			t.Fatalf("coeff %d: got %v, want %v", i, got, want[i])
		}
	}
}

func TestAutomorphismCoeffVsNTT(t *testing.T) {
	r, qb, _ := newTestRing(t, 6, 2, 1)
	for _, k := range []int{1, 2, 5, -3} {
		g := r.GaloisElementForRotation(k)
		a := randPoly(r, qb, int64(100+k))
		// Coefficient-domain automorphism.
		outCoeff := r.NewPoly(qb)
		if err := r.Automorphism(a, g, outCoeff); err != nil {
			t.Fatal(err)
		}
		// NTT-domain automorphism.
		an := a.Copy()
		if err := r.NTT(an); err != nil {
			t.Fatal(err)
		}
		outNTT := r.NewPoly(qb)
		if err := r.Automorphism(an, g, outNTT); err != nil {
			t.Fatal(err)
		}
		if err := r.INTT(outNTT); err != nil {
			t.Fatal(err)
		}
		if !outNTT.Equal(outCoeff) {
			t.Fatalf("rotation %d (galEl %d): NTT-domain automorphism differs from coefficient-domain", k, g)
		}
	}
	// Conjugation too.
	g := r.GaloisElementForConjugation()
	a := randPoly(r, qb, 999)
	outCoeff := r.NewPoly(qb)
	if err := r.Automorphism(a, g, outCoeff); err != nil {
		t.Fatal(err)
	}
	an := a.Copy()
	r.NTT(an)
	outNTT := r.NewPoly(qb)
	if err := r.Automorphism(an, g, outNTT); err != nil {
		t.Fatal(err)
	}
	r.INTT(outNTT)
	if !outNTT.Equal(outCoeff) {
		t.Fatal("conjugation: NTT-domain automorphism differs from coefficient-domain")
	}
}

func TestAutomorphismGroupLaw(t *testing.T) {
	r, qb, _ := newTestRing(t, 5, 2, 1)
	g1 := r.GaloisElementForRotation(3)
	g2 := r.GaloisElementForRotation(7)
	g12 := r.GaloisElementForRotation(10)
	a := randPoly(r, qb, 7)
	t1 := r.NewPoly(qb)
	t2 := r.NewPoly(qb)
	if err := r.Automorphism(a, g1, t1); err != nil {
		t.Fatal(err)
	}
	if err := r.Automorphism(t1, g2, t2); err != nil {
		t.Fatal(err)
	}
	want := r.NewPoly(qb)
	if err := r.Automorphism(a, g12, want); err != nil {
		t.Fatal(err)
	}
	if !t2.Equal(want) {
		t.Fatal("auto(g2)∘auto(g1) != auto(g1·g2)")
	}
	if err := r.Automorphism(a, 4, t1); err == nil {
		t.Fatal("expected error for even galois element")
	}
}

func TestModUpPreservesValueModQ(t *testing.T) {
	r, qb, pb := newTestRing(t, 4, 3, 2)
	a := randPoly(r, qb, 11)
	up, err := r.ModUp(a, pb)
	if err != nil {
		t.Fatal(err)
	}
	if up.Basis.Len() != qb.Len()+pb.Len() {
		t.Fatalf("mod-up basis has %d limbs", up.Basis.Len())
	}
	// Original limbs are untouched.
	for j := range a.Limbs {
		for i := range a.Limbs[j] {
			if up.Limbs[j][i] != a.Limbs[j][i] {
				t.Fatal("mod-up altered source limbs")
			}
		}
	}
	// Extension limbs represent x + uQ: check mod each p that the value is
	// congruent to x + uQ for some 0 ≤ u ≤ ℓ.
	Q := qb.Product()
	for i := 0; i < r.N; i++ {
		x, err := a.CoeffToBig(i)
		if err != nil {
			t.Fatal(err)
		}
		ok := false
		for u := int64(0); u <= int64(qb.Len()); u++ {
			cand := new(big.Int).Mul(Q, big.NewInt(u))
			cand.Add(cand, x)
			match := true
			for k, p := range pb.Moduli {
				pv := new(big.Int).Mod(cand, new(big.Int).SetUint64(p)).Uint64()
				if up.Limbs[qb.Len()+k][i] != pv {
					match = false
					break
				}
			}
			if match {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("coefficient %d: extension limbs are not x + uQ", i)
		}
	}
	// NTT-domain input must be rejected.
	an := a.Copy()
	r.NTT(an)
	if _, err := r.ModUp(an, pb); err == nil {
		t.Fatal("expected coefficient-domain error")
	}
}

// TestModDownDividesByP: mod-down of P·x + small should return ≈ x.
func TestModDownDividesByP(t *testing.T) {
	r, qb, pb := newTestRing(t, 4, 3, 2)
	uni, _ := qb.Union(pb)
	P := pb.Product()
	rng := rand.New(rand.NewSource(21))
	// Build x small, then set poly = P·x in basis Q∪P.
	p := r.NewPoly(uni)
	xs := make([]*big.Int, r.N)
	for i := 0; i < r.N; i++ {
		xs[i] = new(big.Int).Rand(rng, big.NewInt(1<<20))
		v := new(big.Int).Mul(P, xs[i])
		p.SetCoeffBig(i, v)
	}
	down, err := r.ModDown(p, pb)
	if err != nil {
		t.Fatal(err)
	}
	if !down.Basis.Equal(qb) {
		t.Fatalf("mod-down basis %v", down.Basis)
	}
	for i := 0; i < r.N; i++ {
		got, err := down.CoeffToCentered(i)
		if err != nil {
			t.Fatal(err)
		}
		diff := new(big.Int).Sub(got, xs[i])
		if diff.CmpAbs(big.NewInt(int64(qb.Len()+pb.Len()))) > 0 {
			t.Fatalf("coeff %d: P·x/P = %v, want ≈ %v", i, got, xs[i])
		}
	}
	if _, err := r.ModDown(r.NewPoly(qb), pb); err == nil {
		t.Fatal("expected error when basis too small")
	}
}

// TestModDownRejectsForeignBasis: a planned mod-down, coefficient or NTT
// domain, refuses a poly whose limb count matches the plan but whose
// moduli — or their order — do not; dividing it would use the wrong
// constants and return garbage with a nil error.
func TestModDownRejectsForeignBasis(t *testing.T) {
	r, qb, pb := newTestRing(t, 4, 3, 2)
	q, p := qb.Moduli, pb.Moduli
	mp, err := r.NewModDownPlan(qb.Prefix(2), pb)
	if err != nil {
		t.Fatal(err)
	}
	bases := map[string][]uint64{
		"plan basis":            {q[0], q[1], p[0], p[1]},
		"foreign working limb":  {q[0], q[2], p[0], p[1]},
		"foreign extension":     {q[0], q[1], p[0], q[2]},
		"working limbs swapped": {q[1], q[0], p[0], p[1]},
		"extension swapped":     {q[0], q[1], p[1], p[0]},
	}
	for name, moduli := range bases {
		for _, ntt := range []bool{false, true} {
			in := randPoly(r, rns.MustBasis(moduli), 41)
			in.IsNTT = ntt
			var out *Poly
			if ntt {
				out, err = r.ModDownNTTWith(mp, in)
			} else {
				out, err = r.ModDownWith(mp, in)
			}
			if name == "plan basis" {
				if err != nil {
					t.Fatalf("%s (NTT %v): %v", name, ntt, err)
				}
				r.PutPoly(out)
				continue
			}
			if err == nil || out != nil {
				t.Errorf("%s (NTT %v): accepted, want a basis error", name, ntt)
			}
		}
	}
}

// TestRescaleDividesByLastModulus mirrors the CKKS level drop.
func TestRescaleDividesByLastModulus(t *testing.T) {
	r, qb, _ := newTestRing(t, 4, 3, 1)
	ql := qb.Moduli[qb.Len()-1]
	rng := rand.New(rand.NewSource(31))
	p := r.NewPoly(qb)
	xs := make([]*big.Int, r.N)
	for i := 0; i < r.N; i++ {
		xs[i] = new(big.Int).Rand(rng, big.NewInt(1<<30))
		v := new(big.Int).Mul(new(big.Int).SetUint64(ql), xs[i])
		p.SetCoeffBig(i, v)
	}
	out, err := r.Rescale(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Basis.Len() != qb.Len()-1 {
		t.Fatalf("rescale kept %d limbs", out.Basis.Len())
	}
	for i := 0; i < r.N; i++ {
		got, err := out.CoeffToCentered(i)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(xs[i]) != 0 {
			t.Fatalf("coeff %d: got %v, want %v", i, got, xs[i])
		}
	}
}

func TestSamplerDistributions(t *testing.T) {
	r, qb, _ := newTestRing(t, 8, 2, 1)
	s := NewSampler(r, 99)
	tern := s.TernaryPoly(qb)
	for i := 0; i < r.N; i++ {
		v, err := tern.CoeffToCentered(i)
		if err != nil {
			t.Fatal(err)
		}
		if v.CmpAbs(big.NewInt(1)) > 0 {
			t.Fatalf("ternary coefficient %d = %v", i, v)
		}
	}
	gauss := s.GaussianPoly(qb)
	var sum float64
	for i := 0; i < r.N; i++ {
		v, err := gauss.CoeffToCentered(i)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := new(big.Float).SetInt(v).Float64()
		if f > 20 || f < -20 {
			t.Fatalf("gaussian coefficient %d = %v out of 6σ bound", i, v)
		}
		sum += f
	}
	if mean := sum / float64(r.N); mean > 1 || mean < -1 {
		t.Fatalf("gaussian mean %f too far from 0", mean)
	}
	zo := s.ZOPoly(qb)
	zeros := 0
	for i := 0; i < r.N; i++ {
		v, _ := zo.CoeffToCentered(i)
		if v.Sign() == 0 {
			zeros++
		}
	}
	if zeros < r.N/4 || zeros > 3*r.N/4 {
		t.Fatalf("ZO zero fraction %d/%d implausible", zeros, r.N)
	}
}

func TestMulScalar(t *testing.T) {
	r, qb, _ := newTestRing(t, 4, 2, 1)
	a := randPoly(r, qb, 3)
	out := r.NewPoly(qb)
	r.MulScalar(a, 7, out)
	for j, q := range qb.Moduli {
		for i := range a.Limbs[j] {
			if out.Limbs[j][i] != rns.MulMod(a.Limbs[j][i], 7, q) {
				t.Fatal("MulScalar mismatch")
			}
		}
	}
	// Big-RNS scalar path with per-limb residues.
	res := make([]uint64, qb.Len())
	for j, q := range qb.Moduli {
		res[j] = 7 % q
	}
	out2 := r.NewPoly(qb)
	if err := r.MulScalarBigRNS(a, res, out2); err != nil {
		t.Fatal(err)
	}
	if !out2.Equal(out) {
		t.Fatal("MulScalarBigRNS != MulScalar for same scalar")
	}
	if err := r.MulScalarBigRNS(a, res[:1], out2); err == nil {
		t.Fatal("expected residue-count error")
	}
}

// misalignedBases are bases that are not universe prefixes, so NTT/INTT
// take the per-limb table path instead of the universe batch plan: the P
// basis alone (a worker's digit extension) and a chip's owned limbs.
func misalignedBases(qb, pb rns.Basis) map[string]rns.Basis {
	q := qb.Moduli
	return map[string]rns.Basis{
		"P basis":    pb,
		"chip limbs": rns.MustBasis([]uint64{q[1], q[2], pb.Moduli[0]}),
	}
}

// TestMisalignedNTTMatchesTables pins the per-limb path to each modulus's
// own table, both directions.
func TestMisalignedNTTMatchesTables(t *testing.T) {
	r, qb, pb := newTestRing(t, 6, 3, 2)
	for name, b := range misalignedBases(qb, pb) {
		p := randPoly(r, b, 43)
		want := p.Copy()
		if err := r.NTT(p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for j, q := range b.Moduli {
			r.TableOf(q).Forward(want.Limbs[j])
		}
		want.IsNTT = true
		if !p.Equal(want) {
			t.Fatalf("%s: NTT differs from the per-modulus tables", name)
		}
		if err := r.INTT(p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for j, q := range b.Moduli {
			r.TableOf(q).Inverse(want.Limbs[j])
		}
		want.IsNTT = false
		if !p.Equal(want) {
			t.Fatalf("%s: INTT differs from the per-modulus tables", name)
		}
	}
}

// TestNTTForeignModulusTouchesNoLimb: a basis with one modulus the ring has
// no table for fails before any limb is transformed.
func TestNTTForeignModulusTouchesNoLimb(t *testing.T) {
	r, qb, pb := newTestRing(t, 4, 3, 2)
	foreign, err := rns.GenerateNTTPrimes(40, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := randPoly(r, rns.MustBasis([]uint64{qb.Moduli[1], pb.Moduli[0]}), 47)
	p.Basis = rns.MustBasis([]uint64{qb.Moduli[1], foreign[0]})
	before := p.Copy()
	if err := r.NTT(p); err == nil {
		t.Fatal("NTT over a foreign modulus succeeded")
	}
	if !p.Equal(before) {
		t.Fatal("failed NTT modified the polynomial")
	}
}

// TestMisalignedNTTZeroAlloc: a warm NTT/INTT over a basis that is not a
// universe prefix allocates nothing on the serial path.
func TestMisalignedNTTZeroAlloc(t *testing.T) {
	r, qb, pb := newTestRing(t, 10, 3, 2)
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	for name, b := range misalignedBases(qb, pb) {
		p := randPoly(r, b, 53)
		if avg := testing.AllocsPerRun(20, func() {
			if err := r.NTT(p); err != nil {
				t.Fatal(err)
			}
			if err := r.INTT(p); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("%s: warm NTT+INTT allocated %.1f times per run, want 0", name, avg)
		}
	}
}

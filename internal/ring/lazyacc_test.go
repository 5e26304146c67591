package ring

import (
	"testing"

	"cinnamon/internal/rns"
)

// lazyAccReference computes the same inner product the accumulator fuses:
// per-term MulCoeffs into a temporary, modular Add into the running sum.
func lazyAccReference(t *testing.T, r *Ring, b rns.Basis, xs, ys []*Poly) *Poly {
	t.Helper()
	sum := r.NewPoly(b)
	sum.IsNTT = true
	tmp := r.NewPoly(b)
	for i := range xs {
		if err := r.MulCoeffs(xs[i], ys[i], tmp); err != nil {
			t.Fatal(err)
		}
		if err := r.Add(sum, tmp, sum); err != nil {
			t.Fatal(err)
		}
	}
	return sum
}

func lazyAccOperands(r *Ring, b rns.Basis, d int) (xs, ys []*Poly) {
	for i := 0; i < d; i++ {
		x := randPoly(r, b, int64(100+i))
		y := randPoly(r, b, int64(200+i))
		x.IsNTT, y.IsNTT = true, true
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

// TestLazyAccMatchesMulCoeffsAdd: the fused 128-bit inner product is
// bit-identical to the reduce-per-term reference.
func TestLazyAccMatchesMulCoeffsAdd(t *testing.T) {
	r, qb, pb := newTestRing(t, 6, 3, 2)
	uni, err := qb.Union(pb)
	if err != nil {
		t.Fatal(err)
	}
	const d = 5
	xs, ys := lazyAccOperands(r, uni, d)
	acc := r.GetLazyAcc(uni)
	defer acc.Release()
	for i := 0; i < d; i++ {
		if err := acc.MulAcc(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	got := r.NewPoly(uni)
	acc.ReduceInto(got)
	if !got.IsNTT {
		t.Fatal("ReduceInto should mark the output NTT-domain")
	}
	want := lazyAccReference(t, r, uni, xs, ys)
	if !got.Equal(want) {
		t.Fatal("fused inner product differs from MulCoeffs+Add reference")
	}
	// Canonical outputs.
	for j, l := range got.Limbs {
		q := uni.Moduli[j]
		for i, v := range l {
			if v >= q {
				t.Fatalf("limb %d coeff %d not canonical: %d >= %d", j, i, v, q)
			}
		}
	}
}

// TestLazyAccAutoFold: accumulating past the d·q < 2^64 budget triggers the
// in-place early reduction and the result still matches the reference.
func TestLazyAccAutoFold(t *testing.T) {
	r, qb, _ := newTestRing(t, 4, 2, 1)
	const d = 10
	xs, ys := lazyAccOperands(r, qb, d)
	acc := r.GetLazyAcc(qb)
	defer acc.Release()
	acc.maxAdds = 3 // force folds well below the moduli's real budget
	for i := 0; i < d; i++ {
		if err := acc.MulAcc(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if acc.adds > 3 {
		t.Fatalf("budget counter %d exceeds forced cap", acc.adds)
	}
	got := r.NewPoly(qb)
	acc.ReduceInto(got)
	if want := lazyAccReference(t, r, qb, xs, ys); !got.Equal(want) {
		t.Fatal("auto-folded inner product differs from reference")
	}
}

// TestLazyAccRejectsMismatch: basis and domain preconditions are enforced.
func TestLazyAccRejectsMismatch(t *testing.T) {
	r, qb, pb := newTestRing(t, 4, 2, 1)
	acc := r.GetLazyAcc(qb)
	defer acc.Release()
	x := randPoly(r, qb, 1)
	y := randPoly(r, qb, 2)
	if err := acc.MulAcc(x, y); err == nil {
		t.Fatal("expected error for coefficient-domain operands")
	}
	x.IsNTT, y.IsNTT = true, true
	if err := acc.MulAcc(x, y); err != nil {
		t.Fatal(err)
	}
	wrong := randPoly(r, pb, 3)
	wrong.IsNTT = true
	if err := acc.MulAcc(wrong, y); err == nil {
		t.Fatal("expected error for basis mismatch")
	}
	short := randPoly(r, qb.Prefix(1), 4)
	short.IsNTT = true
	if err := acc.MulAcc(short, y); err == nil {
		t.Fatal("expected error for an operand with fewer limbs than the accumulator")
	}
	if err := acc.MulScalarAcc(short, 3); err == nil {
		t.Fatal("expected MulScalarAcc error for an operand with fewer limbs than the accumulator")
	}
}

// TestLazyAccPrefixAndScalar: an accumulator over a basis prefix reads
// longer operands through their first limbs, and MulScalarAcc of a signed
// integer equals MulAcc with the constant polynomial's NTT image — the
// integer's residue in every cell.
func TestLazyAccPrefixAndScalar(t *testing.T) {
	r, qb, _ := newTestRing(t, 4, 3, 1)
	low := qb.Prefix(2)
	x := randPoly(r, qb, 5)
	y := randPoly(r, qb, 6)
	x.IsNTT, y.IsNTT = true, true
	xLow, err := r.Restrict(x, low)
	if err != nil {
		t.Fatal(err)
	}
	yLow, err := r.Restrict(y, low)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{0, 7, -7, 1 << 50, -(1 << 50)} {
		acc := r.GetLazyAcc(low)
		if err := acc.MulAcc(x, y); err != nil {
			t.Fatal(err)
		}
		if err := acc.MulScalarAcc(x, v); err != nil {
			t.Fatal(err)
		}
		got := r.NewPoly(low)
		acc.ReduceInto(got)
		acc.Release()

		c := r.NewPoly(low)
		c.IsNTT = true
		for j, q := range low.Moduli {
			w := uint64(v) % q
			if v < 0 {
				w = (q - uint64(-v)%q) % q
			}
			for i := range c.Limbs[j] {
				c.Limbs[j][i] = w
			}
		}
		want := lazyAccReference(t, r, low, []*Poly{xLow, xLow}, []*Poly{yLow, c})
		if !got.Equal(want) {
			t.Fatalf("scalar %d: prefix-read accumulate differs from the restricted reference", v)
		}
	}
}

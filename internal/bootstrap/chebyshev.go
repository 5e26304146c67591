package bootstrap

import (
	"fmt"
	"math"

	"cinnamon/internal/ckks"
)

// Chebyshev is a truncated Chebyshev series for a function over [A, B].
type Chebyshev struct {
	A, B   float64
	Coeffs []float64 // c_0 .. c_d in the Chebyshev basis over [A,B]
}

// FitChebyshev interpolates f at the Chebyshev nodes of degree+1 points,
// returning the series whose truncation error is near-minimax for smooth f.
func FitChebyshev(f func(float64) float64, a, b float64, degree int) *Chebyshev {
	n := degree + 1
	fv := make([]float64, n)
	for j := 0; j < n; j++ {
		theta := math.Pi * (float64(j) + 0.5) / float64(n)
		x := math.Cos(theta)
		fv[j] = f((x*(b-a) + (b + a)) / 2)
	}
	coeffs := make([]float64, n)
	for k := 0; k < n; k++ {
		var s float64
		for j := 0; j < n; j++ {
			s += fv[j] * math.Cos(math.Pi*float64(k)*(float64(j)+0.5)/float64(n))
		}
		coeffs[k] = 2 * s / float64(n)
	}
	coeffs[0] /= 2
	return &Chebyshev{A: a, B: b, Coeffs: coeffs}
}

// EvalFloat evaluates the series at x by Clenshaw recurrence (reference
// path and precision tests).
func (c *Chebyshev) EvalFloat(x float64) float64 {
	y := (2*x - (c.B + c.A)) / (c.B - c.A)
	var b1, b2 float64
	for k := len(c.Coeffs) - 1; k >= 1; k-- {
		b1, b2 = 2*y*b1-b2+c.Coeffs[k], b1
	}
	return y*b1 - b2 + c.Coeffs[0]
}

// Degree returns the series degree.
func (c *Chebyshev) Degree() int { return len(c.Coeffs) - 1 }

// chebCtx carries the shared state of one homomorphic Chebyshev evaluation.
type chebCtx struct {
	ev *ckks.Evaluator
	T  map[int]*ckks.Ciphertext // T_k(y) for baby and giant indices
	m1 int                      // baby-step window (power of two)
}

// EvalChebyshev homomorphically evaluates the series on ct using the
// Paterson–Stockmeyer strategy over the Chebyshev basis: baby steps
// T_1..T_{m1}, giant steps T_{2^t·m1}, and a recursive split
// p = a·T_g + b using 2·T_m·T_n = T_{m+n} + T_{|m−n|}. Depth is
// O(log degree). Scales are tracked exactly; the tiny per-level drift from
// rescaling by primes ≈ Δ is absorbed by the evaluator's add tolerance.
func EvalChebyshev(ev *ckks.Evaluator, ct *ckks.Ciphertext, c *Chebyshev) (*ckks.Ciphertext, error) {
	params := ev.Params()
	d := c.Degree()
	if d < 1 {
		return nil, fmt.Errorf("bootstrap: chebyshev degree %d too small", d)
	}
	// y = (2x − (a+b))/(b−a), one level. The normalization constant is
	// encoded at the scale that lands y at exactly Δ after the rescale,
	// regardless of the input scale (bootstrapping feeds ciphertexts at
	// scale ≈ q0 here).
	delta := params.DefaultScale()
	ptScale := delta * ev.TopModulus(ct.Level()) / ct.Scale
	y, err := ev.MulConstAtScale(ct, complex(2/(c.B-c.A), 0), ptScale)
	if err != nil {
		return nil, err
	}
	if y, err = ev.Rescale(y); err != nil {
		return nil, err
	}
	if c.A != -c.B {
		if y, err = ev.AddConst(y, complex(-(c.A+c.B)/(c.B-c.A), 0)); err != nil {
			return nil, err
		}
	}
	m := 1
	for 1<<m < d+1 {
		m++
	}
	l := (m + 1) / 2
	cc := &chebCtx{ev: ev, T: map[int]*ckks.Ciphertext{1: y}, m1: 1 << l}
	// Baby steps T_2..T_{m1}.
	for k := 2; k <= cc.m1; k++ {
		if _, err := cc.power(k); err != nil {
			return nil, err
		}
	}
	// Giant steps T_{2·m1}, T_{4·m1}, ... up to degree.
	for g := 2 * cc.m1; g <= d; g <<= 1 {
		if _, err := cc.power(g); err != nil {
			return nil, err
		}
	}
	return cc.eval(c.Coeffs)
}

// power returns T_k, computing it from lower powers via
// T_{i+j} = 2·T_i·T_j − T_{|i−j|}.
func (cc *chebCtx) power(k int) (*ckks.Ciphertext, error) {
	if t, ok := cc.T[k]; ok {
		return t, nil
	}
	i := k / 2
	j := k - i
	ti, err := cc.power(i)
	if err != nil {
		return nil, err
	}
	tj, err := cc.power(j)
	if err != nil {
		return nil, err
	}
	ti, tj, err = alignLevels(cc.ev, ti, tj)
	if err != nil {
		return nil, err
	}
	prod, err := cc.ev.MulRelin(ti, tj)
	if err != nil {
		return nil, err
	}
	if prod, err = cc.ev.Rescale(prod); err != nil {
		return nil, err
	}
	if prod, err = cc.ev.Add(prod, prod); err != nil { // ×2
		return nil, err
	}
	if i == j {
		if prod, err = cc.ev.AddConst(prod, -1); err != nil { // T_0 = 1
			return nil, err
		}
	} else {
		td, err := cc.power(j - i)
		if err != nil {
			return nil, err
		}
		a, b, err := alignLevels(cc.ev, prod, td)
		if err != nil {
			return nil, err
		}
		if prod, err = cc.ev.Sub(a, b); err != nil {
			return nil, err
		}
	}
	cc.T[k] = prod
	return prod, nil
}

// eval recursively evaluates the series with the given Chebyshev
// coefficients (degree < 2^ceil(log2(len))).
func (cc *chebCtx) eval(coeffs []float64) (*ckks.Ciphertext, error) {
	coeffs = trimCoeffs(coeffs)
	d := len(coeffs) - 1
	if d < cc.m1 {
		return cc.evalDirect(coeffs)
	}
	// Split at the largest power-of-two g with g ≤ d < 2g.
	g := cc.m1
	for 2*g <= d {
		g <<= 1
	}
	a := make([]float64, d-g+1)
	a[0] = coeffs[g]
	for j := 1; j <= d-g; j++ {
		a[j] = 2 * coeffs[g+j]
	}
	b := make([]float64, g)
	copy(b, coeffs[:g])
	for j := 1; j <= d-g && g-j >= 0; j++ {
		b[g-j] -= coeffs[g+j]
	}
	actA, err := cc.eval(a)
	if err != nil {
		return nil, err
	}
	tg, err := cc.power(g)
	if err != nil {
		return nil, err
	}
	x, y, err := alignLevels(cc.ev, actA, tg)
	if err != nil {
		return nil, err
	}
	prod, err := cc.ev.MulRelin(x, y)
	if err != nil {
		return nil, err
	}
	if prod, err = cc.ev.Rescale(prod); err != nil {
		return nil, err
	}
	actB, err := cc.eval(b)
	if err != nil {
		return nil, err
	}
	p, q, err := alignLevels(cc.ev, prod, actB)
	if err != nil {
		return nil, err
	}
	return cc.ev.Add(p, q)
}

// evalDirect computes Σ c_k·T_k for degree < m1: all T_k dropped to a
// common level, one plaintext multiplication each, one rescale at the end.
func (cc *chebCtx) evalDirect(coeffs []float64) (*ckks.Ciphertext, error) {
	ev := cc.ev
	// Lowest level among the baby powers used.
	minLevel := 1 << 30
	used := []int{}
	for k := 1; k < len(coeffs); k++ {
		if coeffs[k] == 0 {
			continue
		}
		t, err := cc.power(k)
		if err != nil {
			return nil, err
		}
		used = append(used, k)
		if t.Level() < minLevel {
			minLevel = t.Level()
		}
	}
	if len(used) == 0 {
		// Constant polynomial: encode c_0 onto a zero-ish ciphertext by
		// scaling T_1 by zero. Use T_1 dropped one level for shape.
		t1 := cc.T[1]
		z, err := ev.MulConst(t1, 0)
		if err != nil {
			return nil, err
		}
		if z, err = ev.Rescale(z); err != nil {
			return nil, err
		}
		return ev.AddConst(z, complex(coeffs[0], 0))
	}
	// Powers above minLevel are read through their limb prefix.
	lc, err := ev.NewLinComb(minLevel)
	if err != nil {
		return nil, err
	}
	defer lc.Release()
	delta := ev.Params().DefaultScale()
	for _, k := range used {
		if err := lc.AddMulConst(cc.T[k], coeffs[k], delta); err != nil {
			return nil, err
		}
	}
	acc, err := lc.Sum()
	if err != nil {
		return nil, err
	}
	if acc, err = ev.Rescale(acc); err != nil {
		return nil, err
	}
	if coeffs[0] != 0 {
		if acc, err = ev.AddConst(acc, complex(coeffs[0], 0)); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

func trimCoeffs(c []float64) []float64 {
	d := len(c) - 1
	for d > 0 && c[d] == 0 {
		d--
	}
	return c[:d+1]
}

// alignLevels drops the higher-level operand so both sit at the same level.
func alignLevels(ev *ckks.Evaluator, a, b *ckks.Ciphertext) (*ckks.Ciphertext, *ckks.Ciphertext, error) {
	var err error
	if a.Level() > b.Level() {
		if a, err = ev.DropLevel(a, b.Level()); err != nil {
			return nil, nil, err
		}
	} else if b.Level() > a.Level() {
		if b, err = ev.DropLevel(b, a.Level()); err != nil {
			return nil, nil, err
		}
	}
	return a, b, nil
}

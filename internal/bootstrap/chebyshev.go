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
// Every temporary, the powers T_k included, goes back to the ring's pool by
// the time it returns; ct is left as it came.
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
	if y, err = then(ev, y, ev.Rescale); err != nil {
		return nil, err
	}
	if c.A != -c.B {
		if y, err = then(ev, y, addConst(ev, complex(-(c.A+c.B)/(c.B-c.A), 0))); err != nil {
			return nil, err
		}
	}
	m := 1
	for 1<<m < d+1 {
		m++
	}
	l := (m + 1) / 2
	cc := &chebCtx{ev: ev, T: map[int]*ckks.Ciphertext{1: y}, m1: 1 << l}
	defer func() {
		for _, t := range cc.T {
			ev.Release(t)
		}
	}()
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
	ev := cc.ev
	ti, tj = alignLevels(ti, tj)
	prod, err := ev.MulRelin(ti, tj)
	if err != nil {
		return nil, err
	}
	if prod, err = then(ev, prod, ev.Rescale); err != nil {
		return nil, err
	}
	if prod, err = then(ev, prod, double(ev)); err != nil {
		return nil, err
	}
	if i == j {
		if prod, err = then(ev, prod, addConst(ev, -1)); err != nil { // T_0 = 1
			return nil, err
		}
	} else {
		td, err := cc.power(j - i)
		if err != nil {
			ev.Release(prod)
			return nil, err
		}
		if prod, err = then(ev, prod, func(p *ckks.Ciphertext) (*ckks.Ciphertext, error) { return ev.Sub(alignLevels(p, td)) }); err != nil {
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
	ev := cc.ev
	actA, err := cc.eval(a)
	if err != nil {
		return nil, err
	}
	tg, err := cc.power(g)
	if err != nil {
		ev.Release(actA)
		return nil, err
	}
	prod, err := then(ev, actA, func(actA *ckks.Ciphertext) (*ckks.Ciphertext, error) { return ev.MulRelin(alignLevels(actA, tg)) })
	if err != nil {
		return nil, err
	}
	if prod, err = then(ev, prod, ev.Rescale); err != nil {
		return nil, err
	}
	actB, err := cc.eval(b)
	if err != nil {
		ev.Release(prod)
		return nil, err
	}
	defer ev.Release(actB)
	return then(ev, prod, func(prod *ckks.Ciphertext) (*ckks.Ciphertext, error) { return ev.Add(alignLevels(prod, actB)) })
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
		if z, err = then(ev, z, ev.Rescale); err != nil {
			return nil, err
		}
		return then(ev, z, addConst(ev, complex(coeffs[0], 0)))
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
	if acc, err = then(ev, acc, ev.Rescale); err != nil {
		return nil, err
	}
	if coeffs[0] != 0 {
		return then(ev, acc, addConst(ev, complex(coeffs[0], 0)))
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

// alignLevels views the higher-level operand at the lower one's level (a
// limb prefix, no copy), so both sit at the same level. The views share
// their operands' limbs: release the operands, never the views.
func alignLevels(a, b *ckks.Ciphertext) (*ckks.Ciphertext, *ckks.Ciphertext) {
	if a.Level() > b.Level() {
		return a.AtLevel(b.Level()), b
	}
	return a, b.AtLevel(a.Level())
}

// then applies op to ct, whose last use it is, and releases ct, on success
// or failure: op's output never shares ct's limbs.
func then(ev *ckks.Evaluator, ct *ckks.Ciphertext, op func(*ckks.Ciphertext) (*ckks.Ciphertext, error)) (*ckks.Ciphertext, error) {
	out, err := op(ct)
	ev.Release(ct)
	return out, err
}

// double (c + c) and addConst (c + k in every slot) are evaluator ops in
// the shape then takes.
func double(ev *ckks.Evaluator) func(*ckks.Ciphertext) (*ckks.Ciphertext, error) {
	return func(c *ckks.Ciphertext) (*ckks.Ciphertext, error) { return ev.Add(c, c) }
}

func addConst(ev *ckks.Evaluator, k complex128) func(*ckks.Ciphertext) (*ckks.Ciphertext, error) {
	return func(c *ckks.Ciphertext) (*ckks.Ciphertext, error) { return ev.AddConst(c, k) }
}

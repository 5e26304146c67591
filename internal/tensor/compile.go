package tensor

import (
	"fmt"
	"math/rand"

	"cinnamon/internal/dsl"
)

// Compiled is a lowered tensor model. The single lowering walk in
// Compile fixes the plaintext operands (values and symbolic encoding
// scales) and the level schedule; Build and EvalPlain replay the identical
// walk against different backends, so the encrypted program and its plain
// meaning cannot drift apart.
type Compiled struct {
	m     *Model
	d     int
	depth int
	pts   []*ptOperand
}

type compileError struct{ err error }

func bail(format string, args ...any) {
	panic(compileError{fmt.Errorf(format, args...)})
}

// Compile fuses and lowers the model. The result is parameter-set
// independent; level offsets and encoding scales are resolved relative
// to whatever level the input ciphertext arrives at.
func Compile(m *Model) (c *Compiled, err error) {
	if m.err != nil {
		return nil, m.err
	}
	if m.out == nil {
		return nil, fmt.Errorf("tensor: model %q has no output", m.name)
	}
	fuse(m)
	c = &Compiled{m: m, d: m.blockDim()}
	defer func() {
		if p := recover(); p != nil {
			if ce, ok := p.(compileError); ok {
				c, err = nil, fmt.Errorf("tensor: compiling %q: %w", m.name, ce.err)
				return
			}
			panic(p)
		}
	}()
	lw := &lowerer{
		c: c, b: recordBackend{}, memo: map[int]val{},
		recording: true, seen: map[string]bool{},
	}
	out := lw.eval(m.out)
	c.depth = out.off
	c.pts = lw.pts
	if !out.sc.equal(deltaExpr()) {
		bail("internal: output scale is not Δ")
	}
	return c, nil
}

// fuse folds scalar scaling and bias adds into adjacent matvec
// plaintexts and polynomial coefficients, so they cost no extra level
// and no extra operand beyond what the producer already loads:
//
//   - BiasAdd(MatVec(x))        → bias folded into the matvec (added at
//     the pre-rescale scale Δ·q);
//   - Scale(MatVec(x))          → diagonals and any folded bias scaled;
//   - Scale(Poly(x))            → every coefficient scaled;
//   - Poly(Scale(x))            → coefficient k scaled by c^k.
//
// Folding only happens when the producer has no other consumer.
func fuse(m *Model) {
	uses := map[int]int{}
	for _, n := range m.nodes {
		for _, a := range n.args {
			uses[a.id]++
		}
	}
	uses[m.out.id]++
	for _, n := range m.nodes {
		switch n.kind {
		case opBias:
			p := resolve(n.args[0])
			if p.kind == opMatVec && uses[n.args[0].id] == 1 && p.bias == "" {
				p.bias, p.biasFactor = n.name, 1
				n.folded = true
			}
		case opScale:
			p := resolve(n.args[0])
			if uses[n.args[0].id] != 1 {
				break
			}
			switch p.kind {
			case opMatVec:
				p.factor *= n.c
				p.biasFactor *= n.c
				n.folded = true
			case opPoly:
				for k := range p.coeffs {
					p.coeffs[k] *= n.c
				}
				n.folded = true
			}
		case opPoly:
			a := n.args[0]
			if a.kind == opScale && !a.folded && uses[a.id] == 1 {
				s := 1.0
				for k := range n.coeffs {
					n.coeffs[k] *= s
					s *= a.c
				}
				a.folded = true
			}
		}
	}
}

// resolve follows folded passthrough nodes to the producing op.
func resolve(n *node) *node {
	for n.folded {
		n = n.args[0]
	}
	return n
}

// val is a lowered value: a backend handle plus the level offset it has
// consumed from the input level and its symbolic scale.
type val struct {
	h   any
	off int
	sc  scaleExpr
}

type lowerer struct {
	c    *Compiled
	b    backend
	memo map[int]val

	// recording state (Compile's first walk only)
	recording bool
	seen      map[string]bool
	pts       []*ptOperand
}

func (lw *lowerer) d() int { return lw.c.d }

func (lw *lowerer) qual(operand string) string {
	return lw.c.m.name + "." + operand
}

func (lw *lowerer) eval(n *node) val {
	if v, ok := lw.memo[n.id]; ok {
		return v
	}
	var v val
	if n.folded {
		v = lw.eval(n.args[0])
	} else {
		switch n.kind {
		case opInput:
			v = val{lw.b.input(), 0, deltaExpr()}
		case opMatVec:
			v = lw.lowerMatVec(n)
		case opBias:
			x := lw.eval(n.args[0])
			bv := vectorWeights(lw.qual(n.name), n.dim)
			v = lw.addPlain(x, lw.qual(n.name)+".b", padBase(lw.d(), bv, n.dim))
		case opScale:
			x := lw.eval(n.args[0])
			name := fmt.Sprintf("%s.n%d.s", lw.c.m.name, n.id)
			v = lw.mulPlainRescaleTo(x, name, broadcastBase(lw.d(), n.c), x.sc)
		case opAdd:
			v = lw.add2(lw.eval(n.args[0]), lw.eval(n.args[1]))
		case opMul:
			v = lw.lowerMul(n)
		case opPoly:
			v = lw.lowerPoly(n)
		case opLayerNorm:
			v = lw.lowerLayerNorm(n)
		default:
			bail("internal: unknown op kind %d", n.kind)
		}
	}
	lw.memo[n.id] = v
	return v
}

// --- op lowerings ---------------------------------------------------

func (lw *lowerer) lowerMatVec(n *node) val {
	x := lw.eval(n.args[0])
	lw.assertDelta(x, "matvec input")
	d := lw.d()
	W := matrixWeights(lw.qual(n.weight), n.rows, n.cols)
	layout := chooseLayout(n, d)
	if n.rows == 1 && layout != RowMajor {
		bail("matvec %q: rows==1 requires the row-major layout (outputs are broadcast scalars)", n.weight)
	}

	// diagBase is the Halevi-Shoup diagonal u of the d×d zero-padded
	// weight matrix (nil when entirely zero, so its rotation and operand
	// are never emitted — the rotation-key minimization for non-square
	// shapes).
	diagBase := func(u int) []float64 {
		b := make([]float64, d)
		nz := false
		for k := 0; k < n.rows; k++ {
			if col := (k + u) % d; col < n.cols {
				b[k] = n.factor * W[k][col]
				if b[k] != 0 {
					nz = true
				}
			}
		}
		if !nz {
			return nil
		}
		return b
	}
	addBias := func(t val) val {
		if n.bias == "" {
			return t
		}
		bv := vectorWeights(lw.qual(n.bias), n.rows)
		for i := range bv {
			bv[i] *= n.biasFactor
		}
		// Added after the matvec's rescale, encoded at exactly Δ: zero
		// extra depth (AddPlain is free), and the scale stays within the
		// encoder's int64 coefficient range — Δ·q_top would not.
		return lw.addPlain(t, lw.qual(n.bias)+".b", padBase(d, bv, n.rows))
	}

	switch layout {
	case RowMajor:
		wb := make([]float64, d)
		for col := 0; col < n.cols; col++ {
			wb[col] = n.factor * W[0][col]
		}
		// Rescale before the rotate-and-add tree: the same depth, and
		// every rotation keyswitches one limb fewer.
		t := lw.rescale(lw.mulPlain(x, lw.qual(n.weight)+".w", wb, qExpr(x.off)))
		return addBias(lw.rotsum(t))

	case Diagonal:
		var acc val
		have := false
		for u := 0; u < d; u++ {
			b := diagBase(u)
			if b == nil {
				continue
			}
			xu := x
			if u > 0 {
				xu = lw.rotate(x, u)
			}
			term := lw.mulPlain(xu, fmt.Sprintf("%s.d%d", lw.qual(n.weight), u), b, qExpr(x.off))
			if !have {
				acc, have = term, true
			} else {
				acc = lw.add2(acc, term)
			}
		}
		if !have {
			bail("matvec %q: all diagonals are zero", n.weight)
		}
		return addBias(lw.rescale(acc))

	case BSGS:
		n1, n2 := bsgsSplit(d)
		babies := make([]val, n1)
		haveBaby := make([]bool, n1)
		baby := func(i int) val {
			if !haveBaby[i] {
				if i == 0 {
					babies[0] = x
				} else {
					babies[i] = lw.rotate(x, i)
				}
				haveBaby[i] = true
			}
			return babies[i]
		}
		var acc val
		have := false
		for j := 0; j < n2; j++ {
			var inner val
			hi := false
			for i := 0; i < n1; i++ {
				u := j*n1 + i
				b := diagBase(u)
				if b == nil {
					continue
				}
				// Pre-rotate the diagonal by -j·n1 so one giant rotation
				// of the whole inner sum realigns all n1 terms at once.
				pre := make([]float64, d)
				for k := range pre {
					pre[k] = b[((k-j*n1)%d+d)%d]
				}
				term := lw.mulPlain(baby(i), fmt.Sprintf("%s.d%d", lw.qual(n.weight), u), pre, qExpr(x.off))
				if !hi {
					inner, hi = term, true
				} else {
					inner = lw.add2(inner, term)
				}
			}
			if !hi {
				continue
			}
			if j > 0 {
				inner = lw.rotate(inner, j*n1)
			}
			if !have {
				acc, have = inner, true
			} else {
				acc = lw.add2(acc, inner)
			}
		}
		if !have {
			bail("matvec %q: all diagonals are zero", n.weight)
		}
		return addBias(lw.rescale(acc))
	}
	bail("matvec %q: unsupported layout %v", n.weight, layout)
	return val{}
}

func (lw *lowerer) lowerMul(n *node) val {
	a, b := lw.eval(n.args[0]), lw.eval(n.args[1])
	lw.assertDelta(a, "mul input")
	lw.assertDelta(b, "mul input")
	z := lw.rescale(lw.mulCt(a, b)) // (Δ²/q, off+1)
	// Renormalize to Δ with a multiply by 1 at the correcting scale.
	name := fmt.Sprintf("%s.n%d.one", lw.c.m.name, n.id)
	return lw.mulPlainRescaleTo(z, name, broadcastBase(lw.d(), 1), deltaExpr())
}

func (lw *lowerer) lowerPoly(n *node) val {
	t := lw.eval(n.args[0])
	lw.assertDelta(t, "poly input")
	d := lw.d()
	cs := make([]float64, 4)
	copy(cs, n.coeffs)
	deg := polyDegree(n.coeffs)
	pre := fmt.Sprintf("%s.n%d", lw.c.m.name, n.id)
	bc := func(v float64) []float64 { return broadcastBase(d, v) }

	var terms []val
	switch deg {
	case 1:
		terms = append(terms, lw.mulPlainRescaleTo(t, pre+".c1", bc(cs[1]), deltaExpr()))
	case 2:
		u := lw.rescale(lw.mulCt(t, t)) // (Δ²/q_o, o+1)
		terms = append(terms, lw.mulPlainRescaleTo(u, pre+".c2", bc(cs[2]), deltaExpr()))
		if cs[1] != 0 {
			terms = append(terms, lw.mulPlainRescaleTo(t, pre+".c1", bc(cs[1]), deltaExpr()))
		}
	case 3:
		// Depth 2: t² and c3·t are formed side by side, one level each,
		// and their product is the cubic. c3·t is landed on scale
		// q_o·q_{o+1}/Δ so that (Δ²/q_o)·(q_o·q_{o+1}/Δ) = Δ·q_{o+1}
		// rescales onto exactly Δ.
		u := lw.rescale(lw.mulCt(t, t)) // (Δ²/q_o, o+1)
		v := lw.mulPlainRescaleTo(t, pre+".c3", bc(cs[3]), qExpr(t.off).mul(qExpr(t.off+1)).div(deltaExpr()))
		w := lw.rescale(lw.mulCt(u, v)) // (Δ, o+2)
		terms = append(terms, w)
		if cs[2] != 0 {
			terms = append(terms, lw.mulPlainRescaleTo(u, pre+".c2", bc(cs[2]), deltaExpr()))
		}
		if cs[1] != 0 {
			terms = append(terms, lw.mulPlainRescaleTo(t, pre+".c1", bc(cs[1]), deltaExpr()))
		}
	default:
		bail("poly degree %d unsupported", deg)
	}
	out := terms[0]
	for _, term := range terms[1:] {
		out = lw.add2(out, term)
	}
	if cs[0] != 0 {
		out = lw.addPlain(out, pre+".c0", bc(cs[0]))
	}
	return out
}

// invSqrtCoeffs is a least-squares quadratic fit of 1/√v on
// v ∈ [0.05, 1.2], the variance range of unit-scale activations. The
// plaintext reference applies the same fit, so verification is exact;
// the fit quality only bounds how faithful the kernel is to true
// layer normalization.
var invSqrtCoeffs = [3]float64{3.46418, -5.54632, 3.03454}

func (lw *lowerer) lowerLayerNorm(n *node) val {
	x := lw.eval(n.args[0])
	lw.assertDelta(x, "layernorm input")
	d := lw.d()
	if n.dim != d {
		bail("layernorm needs dim == block dim (%d != %d): the rotate-sum moments cover the whole block", n.dim, d)
	}
	dim := float64(n.dim)
	pre := fmt.Sprintf("%s.n%d", lw.c.m.name, n.id)
	bc := func(v float64) []float64 { return broadcastBase(d, v) }

	// Negated mean in every slot: μ' = -(Σ x)/dim.
	bs := lw.rotsum(x)
	muNeg := lw.mulPlainRescaleTo(bs, pre+".mu", bc(-1/dim), deltaExpr()) // (Δ, o+1)
	c := lw.add2(lw.alignTo(x, muNeg.off), muNeg)                         // centered

	// Block variance (times dim): v = Σ (x-μ)².
	u := lw.rescale(lw.mulCt(c, c)) // (Δ²/q, o+2)
	v := lw.rotsum(u)

	// inv ≈ 1/√(v/dim) via the fixed quadratic, with the 1/dim input
	// normalization and the non-Δ scale of v folded into the coefficient
	// encoding scales.
	w := lw.rescale(lw.mulCt(v, v))
	t2 := lw.mulPlainRescaleTo(w, pre+".is2", bc(invSqrtCoeffs[2]/(dim*dim)), deltaExpr())
	t1 := lw.mulPlainRescaleTo(v, pre+".is1", bc(invSqrtCoeffs[1]/dim), deltaExpr())
	inv := lw.add2(t2, t1)
	inv = lw.addPlain(inv, pre+".is0", bc(invSqrtCoeffs[0]))

	// y = γ ⊙ (x-μ)·inv + β.
	y := lw.rescale(lw.mulCt(lw.alignTo(c, inv.off), inv)) // (Δ²/q, o+5)
	gv := vectorWeights(lw.qual(n.name), n.dim)
	g := lw.mulPlainRescaleTo(y, lw.qual(n.name)+".g", padBase(d, gv, n.dim), deltaExpr())
	bv := vectorWeights(lw.qual(n.name2), n.dim)
	return lw.addPlain(g, lw.qual(n.name2)+".b", padBase(d, bv, n.dim))
}

// --- lowering primitives ---------------------------------------------

func (lw *lowerer) assertDelta(v val, what string) {
	if !v.sc.equal(deltaExpr()) {
		bail("internal: %s not at scale Δ", what)
	}
}

func (lw *lowerer) rotate(v val, k int) val {
	return val{lw.b.rotate(v.h, k), v.off, v.sc}
}

// rotsum replaces every slot with its block sum via the log2(d)
// rotate-and-add tree (exact for d-periodic inputs).
func (lw *lowerer) rotsum(v val) val {
	for k := 1; k < lw.d(); k <<= 1 {
		v = lw.add2(v, lw.rotate(v, k))
	}
	return v
}

func (lw *lowerer) alignTo(v val, off int) val {
	if off == v.off {
		return v
	}
	if off < v.off {
		bail("internal: cannot raise level offset %d to %d", v.off, off)
	}
	return val{lw.b.dropTo(v.h, off), off, v.sc}
}

func (lw *lowerer) add2(a, b val) val {
	off := a.off
	if b.off > off {
		off = b.off
	}
	a, b = lw.alignTo(a, off), lw.alignTo(b, off)
	if !a.sc.equal(b.sc) {
		bail("internal: add of mismatched scales")
	}
	return val{lw.b.add(a.h, b.h), off, a.sc}
}

func (lw *lowerer) mulCt(a, b val) val {
	off := a.off
	if b.off > off {
		off = b.off
	}
	a, b = lw.alignTo(a, off), lw.alignTo(b, off)
	return val{lw.b.mulCt(a.h, b.h), off, a.sc.mul(b.sc)}
}

func (lw *lowerer) operand(name string, base []float64, sc scaleExpr) *ptOperand {
	p := &ptOperand{name: name, base: base, sc: sc.canon()}
	if lw.recording {
		if lw.seen[name] {
			bail("duplicate plaintext operand %q (weight names must be unique per model)", name)
		}
		lw.seen[name] = true
		lw.pts = append(lw.pts, p)
	}
	return p
}

func (lw *lowerer) mulPlain(v val, name string, base []float64, sc scaleExpr) val {
	p := lw.operand(name, base, sc)
	return val{lw.b.mulPlain(v.h, p), v.off, v.sc.mul(sc)}
}

func (lw *lowerer) addPlain(v val, name string, base []float64) val {
	p := lw.operand(name, base, v.sc)
	return val{lw.b.addPlain(v.h, p), v.off, v.sc}
}

func (lw *lowerer) rescale(v val) val {
	return val{lw.b.rescale(v.h), v.off + 1, v.sc.divQ(v.off)}
}

// mulPlainRescaleTo multiplies by a plaintext whose encoding scale is
// chosen so the following rescale lands the value exactly on target —
// the scale-management workhorse of the frontend.
func (lw *lowerer) mulPlainRescaleTo(v val, name string, base []float64, target scaleExpr) val {
	ptSc := target.mul(qExpr(v.off)).div(v.sc)
	return lw.rescale(lw.mulPlain(v, name, base, ptSc))
}

// --- public accessors and replays ------------------------------------

// Name returns the model name.
func (c *Compiled) Name() string { return c.m.name }

// BlockDim is the padded packing block of the logical input dimension.
func (c *Compiled) BlockDim() int { return c.d }

// Depth is the number of multiplicative levels the program consumes.
func (c *Compiled) Depth() int { return c.depth }

// PlaintextSpecs lists every plaintext operand with its values and
// exact encoding scale, for the serving registry. A scale depends on the
// level the input enters at, so Scale takes it.
func (c *Compiled) PlaintextSpecs() []PlaintextSpec {
	specs := make([]PlaintextSpec, 0, len(c.pts))
	for _, p := range c.pts {
		p := p
		specs = append(specs, PlaintextSpec{
			Name:   p.name,
			Values: p.values,
			Scale:  p.sc.eval,
		})
	}
	return specs
}

func (c *Compiled) replay(b backend) (h any, err error) {
	defer func() {
		if p := recover(); p != nil {
			if ce, ok := p.(compileError); ok {
				err = fmt.Errorf("tensor: %q: %w", c.m.name, ce.err)
				return
			}
			panic(p)
		}
	}()
	lw := &lowerer{c: c, b: b, memo: map[int]val{}}
	return lw.eval(c.m.out).h, nil
}

// Build emits the circuit on a dsl stream (the serve registry's
// compilation hook). Lowering errors were already surfaced by Compile,
// so Build panics on the impossible.
func (c *Compiled) Build(s *dsl.Stream, x *dsl.Ciphertext) *dsl.Ciphertext {
	h, err := c.replay(&dslBackend{x: x, inLevel: x.Level()})
	if err != nil {
		panic(err)
	}
	return h.(*dsl.Ciphertext)
}

// EvalPlain replays the circuit on a plain slot vector — full-slot
// cyclic rotations, pointwise products, no crypto anywhere — the
// decrypt-and-verify ground truth.
func (c *Compiled) EvalPlain(in []complex128) []complex128 {
	h, err := c.replay(&plainBackend{in: in})
	if err != nil {
		panic(err) // unreachable: plain replay cannot fail after Compile
	}
	return h.([]complex128)
}

// MakeInput packs a random feature vector the way the frontend expects:
// dim features in [-1,1] zero-padded to the block and replicated across
// the slot vector.
func (c *Compiled) MakeInput(rng *rand.Rand, slots int) []complex128 {
	base := make([]float64, c.d)
	for i := 0; i < c.m.dim; i++ {
		base[i] = rng.Float64()*2 - 1
	}
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(base[i%c.d], 0)
	}
	return v
}

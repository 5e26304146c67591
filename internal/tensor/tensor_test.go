package tensor

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"cinnamon/internal/ckks"
	"cinnamon/internal/dsl"
	"cinnamon/internal/polyir"
	"cinnamon/internal/sched"
)

func testLiteral(levels int) ckks.ParametersLiteral {
	logQ := []int{55}
	for i := 0; i < levels; i++ {
		logQ = append(logQ, 45)
	}
	return ckks.ParametersLiteral{LogN: 8, LogQ: logQ, LogP: []int{58, 58}, LogScale: 45, Seed: 20260808}
}

// crypto is a per-compiled-model test fixture: parameters deep enough
// for the model, the relinearization key and exactly the rotation keys its
// emitted circuit consumes.
type crypto struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
	ev     *ckks.Evaluator
}

func newCrypto(t *testing.T, c *Compiled, extraLevels int) *crypto {
	t.Helper()
	params, err := ckks.NewParameters(testLiteral(c.Depth() + extraLevels))
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
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
	var rtks *ckks.RotationKeySet
	if rots := graphRotations(t, c, params.MaxLevel()); len(rots) > 0 {
		offsets := make([]int, 0, len(rots))
		for k := range rots {
			offsets = append(offsets, k)
		}
		if rtks, err = kg.GenRotationKeySet(sk, offsets, false); err != nil {
			t.Fatal(err)
		}
	}
	return &crypto{
		params: params,
		enc:    ckks.NewEncoder(params),
		encr:   ckks.NewEncryptor(params, pk),
		decr:   ckks.NewDecryptor(params, sk),
		ev:     ckks.NewEvaluator(params, rlk, rtks),
	}
}

// executor plans c's emission the way the serving registry does: Build's
// graph for an input at level, the operand scales that level resolves to
// and sched.BuildPlan over them. An error means the program cannot run from
// that level.
func (cr *crypto) executor(c *Compiled, level int) (*sched.Executor, error) {
	prog := dsl.NewProgram(dsl.Config{MaxLevel: level})
	s := prog.Stream(0)
	s.Output("y", c.Build(s, s.Input("x", level)))
	g, err := prog.Finish()
	if err != nil {
		return nil, err
	}
	scales := map[string]float64{}
	pts := map[string]*ckks.Plaintext{}
	for _, ps := range c.PlaintextSpecs() {
		if scales[ps.Name], err = ps.Scale(cr.params, level); err != nil {
			return nil, err
		}
		if pts[ps.Name], err = cr.enc.Encode(ps.Values(cr.params.Slots()), cr.params.MaxLevel(), scales[ps.Name]); err != nil {
			return nil, err
		}
	}
	if _, err := sched.BuildPlan(g, cr.params, scales, level, 0); err != nil {
		return nil, err
	}
	return sched.NewExecutor(g, cr.params, pts), nil
}

// run executes c on ct through the serving executor.
func (cr *crypto) run(t *testing.T, c *Compiled, ct *ckks.Ciphertext) *ckks.Ciphertext {
	t.Helper()
	ex, err := cr.executor(c, ct.Level())
	if err != nil {
		t.Fatalf("planning from level %d: %v", ct.Level(), err)
	}
	out, err := ex.Run(context.Background(), cr.ev, ct, sched.RunOpts{})
	if err != nil {
		t.Fatalf("running from level %d: %v", ct.Level(), err)
	}
	return out
}

func (cr *crypto) encrypt(t *testing.T, v []complex128, level int) *ckks.Ciphertext {
	t.Helper()
	pt, err := cr.enc.Encode(v, level, cr.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := cr.encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func (cr *crypto) decrypt(t *testing.T, ct *ckks.Ciphertext) []complex128 {
	t.Helper()
	pt, err := cr.decr.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cr.enc.Decode(pt, cr.params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func maxErr(a, b []complex128) float64 {
	w := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > w {
			w = e
		}
	}
	return w
}

// replicate packs a real base block across the slot vector.
func replicate(base []float64, slots int) []complex128 {
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(base[i%len(base)], 0)
	}
	return v
}

// textbookMatVec is the independent ground truth: the padded rows×cols
// product of the model's deterministic weights with the base block.
func textbookMatVec(model, weight string, rows, cols, d int, x []float64) []float64 {
	W := matrixWeights(model+"."+weight, rows, cols)
	y := make([]float64, d)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			y[r] += W[r][c] * x[c]
		}
	}
	if rows == 1 {
		// dim-1 outputs are broadcast scalars: the dot product fills the
		// whole block.
		for i := 1; i < d; i++ {
			y[i] = y[0]
		}
	}
	return y
}

func addBias(model, bias string, rows, d int, y []float64) []float64 {
	bv := vectorWeights(model+"."+bias, rows)
	if rows == 1 {
		for i := range y {
			y[i] += bv[0]
		}
		return y
	}
	for i := 0; i < rows; i++ {
		y[i] += bv[i]
	}
	return y
}

// TestMatVecLayouts is the layout property test: every layout × a set of
// non-square shapes, executed through the serving executor at the top
// starting level and one below, against the textbook product.
func TestMatVecLayouts(t *testing.T) {
	cases := []struct {
		rows, cols int
		layout     Layout
	}{
		{1, 16, Auto}, // row-major dot product
		{1, 8, RowMajor},
		{8, 8, Auto}, // small square → diagonal
		{4, 8, Diagonal},
		{8, 5, Diagonal}, // wide padding, zero diagonals skipped
		{16, 16, BSGS},
		{5, 13, BSGS}, // non-square, padded to d=16
		{3, 16, BSGS},
		{64, 64, Auto}, // transformer-block shape → BSGS
		{32, 64, BSGS},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%dx%d-%v", tc.rows, tc.cols, tc.layout), func(t *testing.T) {
			m := NewModel("mv", tc.cols)
			m.Output(m.BiasAdd(m.MatVec(m.Input(), "w", tc.rows, tc.cols, tc.layout), "b"))
			c, err := Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			if c.Depth() != 1 {
				t.Fatalf("matvec+bias depth %d, want 1 (bias must fuse)", c.Depth())
			}
			cr := newCrypto(t, c, 1)
			d := c.BlockDim()
			rng := rand.New(rand.NewSource(42))
			base := make([]float64, d)
			for i := 0; i < tc.cols; i++ {
				base[i] = rng.Float64()*2 - 1
			}
			want := addBias("mv", "b", tc.rows, d, textbookMatVec("mv", "w", tc.rows, tc.cols, d, base))
			wantSlots := replicate(want, cr.params.Slots())

			in := replicate(base, cr.params.Slots())
			for _, level := range []int{cr.params.MaxLevel(), cr.params.MaxLevel() - 1} {
				out := cr.run(t, c, cr.encrypt(t, in, level))
				if out.Level() != level-c.Depth() {
					t.Fatalf("level %d: output level %d, want %d", level, out.Level(), level-c.Depth())
				}
				if rel := math.Abs(out.Scale-cr.params.DefaultScale()) / cr.params.DefaultScale(); rel > 1e-9 {
					t.Fatalf("level %d: output scale off by %g (scale management must be exact)", level, rel)
				}
				if e := maxErr(cr.decrypt(t, out), wantSlots); e > 1e-4 {
					t.Fatalf("level %d: error vs textbook %g", level, e)
				}
			}

			// The crypto-free plaintext replay agrees with the textbook too.
			if e := maxErr(c.EvalPlain(in), wantSlots); e > 1e-12 {
				t.Fatalf("EvalPlain error vs textbook %g", e)
			}
		})
	}
}

// TestPolyDegrees checks the activation lowering (and its exact scale
// recipes) for every supported degree.
func TestPolyDegrees(t *testing.T) {
	coeffSets := [][]float64{
		{0.25, 1.5},             // degree 1
		{0.1, -0.5, 0.75},       // degree 2
		{0.5, 0.197, 0, -0.004}, // degree 3 (the sigmoid approximation)
		{0, 0.3, -0.2, 0.1},     // full cubic
	}
	for _, coeffs := range coeffSets {
		coeffs := coeffs
		t.Run(fmt.Sprintf("deg%d", polyDegree(coeffs)), func(t *testing.T) {
			m := NewModel("act", 8)
			m.Output(m.Poly(m.Input(), coeffs))
			c, err := Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			// A cubic is t²·(c3·t): depth 2, like the quadratic.
			depth := polyDegree(coeffs)
			if depth > 2 {
				depth = 2
			}
			if c.Depth() != depth {
				t.Fatalf("poly depth %d, want %d", c.Depth(), depth)
			}
			cr := newCrypto(t, c, 1)
			rng := rand.New(rand.NewSource(7))
			in := c.MakeInput(rng, cr.params.Slots())
			want := make([]complex128, len(in))
			for i, x := range in {
				y := complex(0, 0)
				for k := len(coeffs) - 1; k >= 0; k-- {
					y = y*x + complex(coeffs[k], 0)
				}
				want[i] = y
			}
			out := cr.run(t, c, cr.encrypt(t, in, cr.params.MaxLevel()))
			if rel := math.Abs(out.Scale-cr.params.DefaultScale()) / cr.params.DefaultScale(); rel > 1e-9 {
				t.Fatalf("output scale off by %g", rel)
			}
			if e := maxErr(cr.decrypt(t, out), want); e > 1e-4 {
				t.Fatalf("error vs plain polynomial %g", e)
			}
			if e := maxErr(c.EvalPlain(in), want); e > 1e-12 {
				t.Fatalf("EvalPlain error %g", e)
			}
		})
	}
}

// TestElementwiseOps: ct·ct multiply renormalized to Δ, free adds, and
// standalone scaling.
func TestElementwiseOps(t *testing.T) {
	m := NewModel("ew", 8)
	x := m.Input()
	sq := m.Mul(x, x)
	sum := m.Add(sq, x)
	m.Output(m.Scale(sum, 0.5))
	c, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	// Mul costs 2 (product + renormalize), Scale 1 more.
	if c.Depth() != 3 {
		t.Fatalf("depth %d, want 3", c.Depth())
	}
	cr := newCrypto(t, c, 1)
	rng := rand.New(rand.NewSource(11))
	in := c.MakeInput(rng, cr.params.Slots())
	want := make([]complex128, len(in))
	for i, v := range in {
		want[i] = 0.5 * (v*v + v)
	}
	out := cr.run(t, c, cr.encrypt(t, in, cr.params.MaxLevel()))
	if e := maxErr(cr.decrypt(t, out), want); e > 1e-4 {
		t.Fatalf("error %g", e)
	}
	if e := maxErr(c.EvalPlain(in), want); e > 1e-12 {
		t.Fatalf("EvalPlain error %g", e)
	}
}

// TestLayerNorm checks the depth-6 normalization kernel against an
// independent plain computation of the same approximation.
func TestLayerNorm(t *testing.T) {
	const d = 16
	m := NewModel("ln", d)
	m.Output(m.LayerNorm(m.Input(), "gamma", "beta"))
	c, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if c.Depth() != 6 {
		t.Fatalf("layernorm depth %d, want 6", c.Depth())
	}
	cr := newCrypto(t, c, 1)
	rng := rand.New(rand.NewSource(3))
	base := make([]float64, d)
	for i := range base {
		base[i] = rng.Float64()*2 - 1
	}
	in := replicate(base, cr.params.Slots())

	// Independent reference: moments + the published quadratic.
	mean := 0.0
	for _, v := range base {
		mean += v
	}
	mean /= d
	variance := 0.0
	for _, v := range base {
		variance += (v - mean) * (v - mean)
	}
	variance /= d
	inv := invSqrtCoeffs[0] + invSqrtCoeffs[1]*variance + invSqrtCoeffs[2]*variance*variance
	gv := vectorWeights("ln.gamma", d)
	bv := vectorWeights("ln.beta", d)
	want := make([]float64, d)
	for i := range want {
		want[i] = gv[i]*(base[i]-mean)*inv + bv[i]
	}
	wantSlots := replicate(want, cr.params.Slots())

	out := cr.run(t, c, cr.encrypt(t, in, cr.params.MaxLevel()))
	if e := maxErr(cr.decrypt(t, out), wantSlots); e > 1e-3 {
		t.Fatalf("error vs plain layernorm %g", e)
	}
	if e := maxErr(c.EvalPlain(in), wantSlots); e > 1e-9 {
		t.Fatalf("EvalPlain error %g", e)
	}
}

// TestFusion: bias and scaling fold into the matvec plaintexts — same
// depth, same rotation set, no extra operands — and pre-poly scaling
// folds into coefficients.
func TestFusion(t *testing.T) {
	m := NewModel("fz", 8)
	h := m.MatVec(m.Input(), "w", 8, 8, Diagonal)
	h = m.BiasAdd(h, "b")
	h = m.Scale(h, 2.5)
	m.Output(h)
	c, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if c.Depth() != 1 {
		t.Fatalf("fused matvec+bias+scale depth %d, want 1", c.Depth())
	}
	for _, p := range c.pts {
		if p.name == "fz.n3.s" {
			t.Fatalf("standalone scale operand emitted despite fusion")
		}
	}
	cr := newCrypto(t, c, 1)
	rng := rand.New(rand.NewSource(5))
	base := make([]float64, 8)
	for i := range base {
		base[i] = rng.Float64()*2 - 1
	}
	y := addBias("fz", "b", 8, 8, textbookMatVec("fz", "w", 8, 8, 8, base))
	for i := range y {
		y[i] *= 2.5
	}
	in := replicate(base, cr.params.Slots())
	out := cr.run(t, c, cr.encrypt(t, in, cr.params.MaxLevel()))
	if e := maxErr(cr.decrypt(t, out), replicate(y, cr.params.Slots())); e > 1e-4 {
		t.Fatalf("fused result error %g", e)
	}

	// Pre-activation scaling folds into the polynomial coefficients.
	m2 := NewModel("fz2", 8)
	m2.Output(m2.Poly(m2.Scale(m2.Input(), 3), []float64{0, 1, 0, 1}))
	c2, err := Compile(m2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Depth() != 2 {
		t.Fatalf("poly(scale(x)) depth %d, want 2 (scale must fold)", c2.Depth())
	}
	in2 := c2.MakeInput(rng, 256/2)
	want2 := make([]complex128, len(in2))
	for i, v := range in2 {
		want2[i] = 3*v + 27*v*v*v
	}
	if e := maxErr(c2.EvalPlain(in2), want2); e > 1e-9 {
		t.Fatalf("folded poly error %g", e)
	}
}

// TestLogregEndToEnd is the frontend's exit-criterion kernel: matvec +
// fused bias + degree-3 sigmoid, verified against a fully independent
// plain computation.
func TestLogregEndToEnd(t *testing.T) {
	const n = 16
	m := NewModel("lr", n)
	h := m.MatVec(m.Input(), "w", 1, n, Auto)
	h = m.BiasAdd(h, "b")
	h = m.Poly(h, []float64{0.5, 0.197, 0, -0.004})
	m.Output(h)
	c, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if c.Depth() != 3 {
		t.Fatalf("logreg depth %d, want 3", c.Depth())
	}
	cr := newCrypto(t, c, 1)
	rng := rand.New(rand.NewSource(17))
	in := c.MakeInput(rng, cr.params.Slots())

	W := matrixWeights("lr.w", 1, n)
	b := vectorWeights("lr.b", 1)
	dot := b[0]
	for i := 0; i < n; i++ {
		dot += W[0][i] * real(in[i])
	}
	sig := 0.5 + 0.197*dot - 0.004*dot*dot*dot
	want := make([]complex128, len(in))
	for i := range want {
		want[i] = complex(sig, 0)
	}

	out := cr.run(t, c, cr.encrypt(t, in, cr.params.MaxLevel()))
	if e := maxErr(cr.decrypt(t, out), want); e > 1e-3 {
		t.Fatalf("logreg error vs plain sigmoid %g", e)
	}
	if e := maxErr(c.EvalPlain(in), want); e > 1e-9 {
		t.Fatalf("EvalPlain error %g", e)
	}
}

// TestPlaintextScaleBelowDepth: an operand scale asked for at an input level
// below the program's depth may name a modulus under the bottom of the chain
// (at level 0 some operand does). That is an error the serving registry's
// input-level search steps over, not an index panic; every level from the
// depth up resolves, and planning from too low a level fails.
func TestPlaintextScaleBelowDepth(t *testing.T) {
	m := NewModel("lr", 16)
	h := m.MatVec(m.Input(), "w", 1, 16, Auto)
	h = m.BiasAdd(h, "b")
	m.Output(m.Poly(h, []float64{0.5, 0.197, 0, -0.004}))
	c, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	cr := newCrypto(t, c, 1)
	specs := c.PlaintextSpecs()
	for level := 0; level <= cr.params.MaxLevel(); level++ {
		failed := 0
		for _, ps := range specs {
			scale, err := ps.Scale(cr.params, level)
			if err != nil {
				failed++
				continue
			}
			if !(scale > 0) || math.IsInf(scale, 0) {
				t.Fatalf("level %d: operand %q resolves to scale %g", level, ps.Name, scale)
			}
		}
		if (level == 0 && failed == 0) || (level >= c.Depth() && failed > 0) {
			t.Fatalf("level %d (depth %d): %d of %d operand scales failed", level, c.Depth(), failed, len(specs))
		}
	}
	if _, err := specs[0].Scale(cr.params, cr.params.MaxLevel()+1); err == nil {
		t.Fatal("a scale above the chain resolved")
	}
	if _, err := cr.executor(c, c.Depth()-1); err == nil {
		t.Fatalf("planned from level %d, below the depth %d", c.Depth()-1, c.Depth())
	}
}

// graphRotations compiles the dsl emission and collects the rotation
// offsets the polyir graph actually contains.
func graphRotations(t *testing.T, c *Compiled, maxLevel int) map[int]int {
	t.Helper()
	prog := dsl.NewProgram(dsl.Config{MaxLevel: maxLevel})
	s := prog.Stream(0)
	x := s.Input("x", maxLevel)
	s.Output("y", c.Build(s, x))
	g, err := prog.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rots := map[int]int{}
	for _, n := range g.Nodes {
		if n.Kind == polyir.OpRotate {
			rots[n.Rot]++
		}
	}
	return rots
}

// TestRotationSetExact: each layout's emitted circuit consumes exactly the
// rotation offsets it promises — log2(d) for the row-major tree, d-1 for
// the plain diagonal layout — and BSGS emits O(2√d) distinct rotations
// rather than O(d). The keys a tenant registers are what the plan reads
// off this same graph.
func TestRotationSetExact(t *testing.T) {
	build := func(name string, rows, cols int, layout Layout) *Compiled {
		m := NewModel(name, cols)
		m.Output(m.MatVec(m.Input(), "w", rows, cols, layout))
		c, err := Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	rotations := func(c *Compiled) map[int]int { return graphRotations(t, c, c.Depth()+1) }
	if got := rotations(build("r1", 1, 16, Auto)); len(got) != 4 || got[1]*got[2]*got[4]*got[8] != 1 {
		t.Fatalf("row-major d=16 rotates by %v, want 1, 2, 4 and 8 once each", got)
	}
	for _, c := range []*Compiled{build("r4", 5, 13, BSGS), build("r5", 32, 64, BSGS)} {
		d := c.BlockDim()
		if n := len(rotations(c)); n > int(2*math.Sqrt(float64(d))) {
			t.Fatalf("%s: BSGS d=%d uses %d rotations, want ≤ 2√d", c.Name(), d, n)
		}
	}

	// BSGS acceptance: d=64 must need at most 2√d rotation keys, far
	// fewer than the d-1 of the plain diagonal method.
	bsgs := build("r3", 64, 64, BSGS)
	d := bsgs.BlockDim()
	bound := int(2 * math.Sqrt(float64(d)))
	if n := len(rotations(bsgs)); n > bound {
		t.Fatalf("BSGS d=%d uses %d rotations, want ≤ 2√d = %d", d, n, bound)
	}
	if n := len(rotations(bsgs)); n >= d-1 {
		t.Fatalf("BSGS d=%d uses %d rotations — no better than plain diagonal", d, n)
	}
	diag := build("r6", 64, 64, Diagonal)
	if n := len(rotations(diag)); n != d-1 {
		t.Fatalf("plain diagonal d=%d uses %d rotations, expected %d", d, n, d-1)
	}
}

// TestModelErrors: builder misuse surfaces as Compile errors.
func TestModelErrors(t *testing.T) {
	bad := []func() *Model{
		func() *Model { m := NewModel("e", 8); return m }, // no output
		func() *Model {
			m := NewModel("e", 8)
			m.Output(m.MatVec(m.Input(), "w", 4, 16, Auto)) // dim mismatch
			return m
		},
		func() *Model {
			m := NewModel("e", 8)
			m.Output(m.Poly(m.Input(), []float64{0, 1, 0, 0, 1})) // degree 4
			return m
		},
		func() *Model {
			m := NewModel("e", 8)
			m.Output(m.MatVec(m.Input(), "w", 4, 8, RowMajor)) // row-major needs rows==1
			return m
		},
		func() *Model {
			m := NewModel("e", 12) // layernorm needs pow2 == block dim
			m.Output(m.LayerNorm(m.Input(), "g", "b"))
			return m
		},
		func() *Model {
			m := NewModel("e", 8)
			x := m.Input()
			// duplicate operand name across two matvecs
			m.Output(m.Add(m.MatVec(x, "w", 8, 8, Diagonal), m.MatVec(x, "w", 8, 8, Diagonal)))
			return m
		},
	}
	for i, mk := range bad {
		if _, err := Compile(mk()); err == nil {
			t.Fatalf("case %d: expected a compile error", i)
		}
	}
}

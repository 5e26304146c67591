package sched

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"cinnamon/internal/ckks"
	"cinnamon/internal/dsl"
	"cinnamon/internal/polyir"
	"cinnamon/internal/workloads"
)

// sumFixture is a 4-level chain with an evaluator, an input at MaxLevel and
// four plaintext operands encoded at MaxLevel: a, b and c at Δ, and one at
// the top modulus, so a product with one rescales back onto Δ.
type sumFixture struct {
	params *ckks.Parameters
	ev     *ckks.Evaluator
	in     *ckks.Ciphertext
	pts    map[string]*ckks.Plaintext
}

func newSumFixture(t *testing.T) *sumFixture {
	t.Helper()
	params, err := ckks.NewParameters(workloads.ServeParamsLiteral(8, 4, 20260807))
	if err != nil {
		t.Fatal(err)
	}
	ev, encr := testEvaluator(t, params, []int{1}, false)
	rng := rand.New(rand.NewSource(20260807))
	random := func() []complex128 {
		v := make([]complex128, params.Slots())
		for i := range v {
			v[i] = complex(rng.Float64()*2-1, 0)
		}
		return v
	}
	enc := ckks.NewEncoder(params)
	pts := map[string]*ckks.Plaintext{}
	for name, scale := range map[string]float64{
		"a": params.DefaultScale(), "b": params.DefaultScale(), "c": params.DefaultScale(),
		"one": ev.TopModulus(params.MaxLevel()),
	} {
		if pts[name], err = enc.Encode(random(), params.MaxLevel(), scale); err != nil {
			t.Fatal(err)
		}
	}
	return &sumFixture{params, ev, encryptAt(t, params, encr, random(), params.MaxLevel()), pts}
}

// graph compiles body as a batch-1 program over one input at MaxLevel.
func (f *sumFixture) graph(t *testing.T, body func(x *dsl.Ciphertext) *dsl.Ciphertext) *polyir.Graph {
	t.Helper()
	prog := dsl.NewProgram(dsl.Config{MaxLevel: f.params.MaxLevel()})
	dsl.StreamPool(prog, 1, func(_ int, s *dsl.Stream) {
		s.Output("y", body(s.Input("x", f.params.MaxLevel())))
	})
	g, err := prog.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pt returns the named operand at the given level.
func (f *sumFixture) pt(t *testing.T, name string, level int) *ckks.Plaintext {
	t.Helper()
	pt, err := NewExecutor(nil, f.params, f.pts).plaintextAt(name, level)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func wireBytes(t *testing.T, ct *ckks.Ciphertext) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPendingSumsMatchStrictChain pins the run domain's pending sums against
// the MulPlain → DropLevel → Add chain they replace, byte for byte, with and
// without a trace: a sum read by two non-add consumers, a sum dropped a level
// before an Add, and a one-term sum.
func TestPendingSumsMatchStrictChain(t *testing.T) {
	f := newSumFixture(t)
	ev, top := f.ev, f.params.MaxLevel()
	must := func(ct *ckks.Ciphertext, err error) *ckks.Ciphertext {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	mul := func(ct *ckks.Ciphertext, name string) *ckks.Ciphertext {
		return must(ev.MulPlain(ct, f.pt(t, name, ct.Level())))
	}
	add := func(a, b *ckks.Ciphertext) *ckks.Ciphertext { return must(ev.Add(a, b)) }
	rescale := func(ct *ckks.Ciphertext) *ckks.Ciphertext { return must(ev.Rescale(ct)) }
	sum := add(mul(f.in, "a"), mul(f.in, "b"))

	cases := []struct {
		name string
		body func(x *dsl.Ciphertext) *dsl.Ciphertext
		want *ckks.Ciphertext
	}{
		{
			"two consumers",
			func(x *dsl.Ciphertext) *dsl.Ciphertext {
				s := x.MulPlain("a").Add(x.MulPlain("b"))
				return s.Rescale().Add(s.Rotate(1).Rescale())
			},
			add(rescale(sum), rescale(must(ev.Rotate(sum, 1)))),
		},
		{
			"dropped before add",
			func(x *dsl.Ciphertext) *dsl.Ciphertext {
				s := x.MulPlain("a").Add(x.MulPlain("b"))
				return s.Add(x.MulPlain("one").Rescale().MulPlain("c")).Rescale()
			},
			rescale(add(must(ev.DropLevel(sum, top-1)), mul(rescale(mul(f.in, "one")), "c"))),
		},
		{
			"one term",
			func(x *dsl.Ciphertext) *dsl.Ciphertext { return x.MulPlain("a") },
			mul(f.in, "a"),
		},
	}
	for _, tc := range cases {
		g := f.graph(t, tc.body)
		want := wireBytes(t, tc.want)
		ex := NewExecutor(g, f.params, f.pts)
		out, err := ex.Run(context.Background(), ev, f.in, RunOpts{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(wireBytes(t, out), want) {
			t.Fatalf("%s: executor output differs from the strict chain", tc.name)
		}
		// A trace forces every pending sum where it is made, so the run is
		// the strict chain itself; it sees a ciphertext for every node.
		traced := map[int]bool{}
		trace := func(id int, ct *ckks.Ciphertext) {
			if ct == nil || ct.C0 == nil || ct.C1 == nil {
				t.Errorf("%s: node %d traced without a ciphertext", tc.name, id)
			}
			traced[id] = true
		}
		out, err = ex.Run(context.Background(), ev, f.in, RunOpts{Trace: trace})
		if err != nil {
			t.Fatalf("%s traced: %v", tc.name, err)
		}
		if len(traced) != len(g.Nodes) {
			t.Fatalf("%s: traced %d of %d nodes", tc.name, len(traced), len(g.Nodes))
		}
		if !bytes.Equal(wireBytes(t, out), want) {
			t.Fatalf("%s: traced output differs from the strict chain", tc.name)
		}
	}
}

// TestPendingSumForcedOnce: a sum read by two non-add consumers is evaluated
// by the first and its ciphertext reused by the second, and dropping a
// ciphertext is a view that shares its limbs.
func TestPendingSumForcedOnce(t *testing.T) {
	f := newSumFixture(t)
	r := &run{ctx: context.Background(), ex: NewExecutor(nil, f.params, f.pts), ev: f.ev}
	x := &value{ct: f.in}
	step := func(v *value, err error) *value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	s := step(r.add(step(r.mulPlain(x, "a")), step(r.mulPlain(x, "b"))))
	if s.ct != nil || len(s.terms) != 2 {
		t.Fatalf("an add of two plaintext products was evaluated early (%d pending terms)", len(s.terms))
	}
	step(r.rescale(s))
	first := s.ct
	if first == nil {
		t.Fatal("the first consumer did not keep the evaluated sum")
	}
	step(r.rotate(s, 1))
	if s.ct != first {
		t.Fatal("the second consumer evaluated the sum again")
	}

	view := step(r.dropLevel(x, 1))
	if view.ct.Level() != 1 || &view.ct.C0.Limbs[0][0] != &f.in.C0.Limbs[0][0] || &view.ct.C1.Limbs[1][0] != &f.in.C1.Limbs[1][0] {
		t.Fatalf("dropLevel copied its operand instead of returning a limb-prefix view (level %d)", view.ct.Level())
	}
}

// TestTracedValuesOutliveRun: a traced run releases nothing, so every value
// the trace saw is still intact after Run returns, even once later runs
// have drawn from the ring's pool. An untraced run of the same graph does
// release its intermediates, and its output is still the traced run's.
func TestTracedValuesOutliveRun(t *testing.T) {
	f := newSumFixture(t)
	g := f.graph(t, func(x *dsl.Ciphertext) *dsl.Ciphertext {
		s := x.MulPlain("a").Add(x.MulPlain("b"))
		r := s.Rescale()
		return r.Add(r.Rotate(1)).MulPlain("c").Rescale()
	})
	ex := NewExecutor(g, f.params, f.pts)
	seen := map[int]*ckks.Ciphertext{}
	images := map[int][]byte{}
	trace := func(id int, ct *ckks.Ciphertext) {
		seen[id], images[id] = ct, wireBytes(t, ct)
	}
	traced, err := ex.Run(context.Background(), f.ev, f.in, RunOpts{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		out, err := ex.Run(context.Background(), f.ev, f.in, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wireBytes(t, out), wireBytes(t, traced)) {
			t.Fatal("an untraced run differs from the traced one")
		}
		f.ev.Release(out)
	}
	if len(seen) != len(g.Nodes) {
		t.Fatalf("traced %d of %d nodes", len(seen), len(g.Nodes))
	}
	for id, ct := range seen {
		if ct.C0 == nil || !bytes.Equal(wireBytes(t, ct), images[id]) {
			t.Fatalf("node %d's traced value changed after Run returned", id)
		}
	}
}

package serve

import (
	"context"
	"testing"

	"cinnamon/internal/ckks"
	"cinnamon/internal/polyir"
	"cinnamon/internal/sched"
	"cinnamon/internal/workloads"
)

// oneShotFixture compiles the registry on the one-shot benchmark's chain
// (logN 12, 4 levels) and returns the named program, an evaluator holding
// the catalog's keys and a fresh encryption of zeros at the program's
// InLevel.
func oneShotFixture(t *testing.T, name string) (*Program, *ckks.Evaluator, *ckks.Ciphertext) {
	t.Helper()
	reg, err := NewRegistry(RegistryConfig{Literal: workloads.ServeParamsLiteral(12, 4, 20260805)})
	if err != nil {
		t.Fatal(err)
	}
	encr, keys := catalogKeys(t, reg)
	return oneShotProgram(t, reg, encr, keys, name)
}

// oneShotProgram is oneShotFixture's per-program half, over a registry
// and key set already built.
func oneShotProgram(t *testing.T, reg *Registry, encr *ckks.Encryptor, keys map[string]*ckks.EvalKey, name string) (*Program, *ckks.Evaluator, *ckks.Ciphertext) {
	t.Helper()
	p, ok := reg.Program(name)
	if !ok {
		t.Fatalf("%s not in the logN %d registry", name, reg.Params.LogN())
	}
	ev := tenantEvaluator(reg.Params, keys)
	pt, err := ckks.NewEncoder(reg.Params).Encode(make([]complex128, reg.Params.Slots()), p.InLevel, reg.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return p, ev, ct
}

// TestRowMajorRotatesBelowRescale: logreg16's dot product rescales its
// plaintext product before the rotate-and-add tree, so run from its InLevel
// every rotation keyswitches at InLevel−1, one limb below the input, and the
// output is exactly what the registry advertises.
func TestRowMajorRotatesBelowRescale(t *testing.T) {
	p, ev, ct := oneShotFixture(t, "logreg16")
	g := p.Executor().Graph
	kinds := make(map[int]polyir.OpKind, len(g.Nodes))
	for _, n := range g.Nodes {
		kinds[n.ID] = n.Kind
	}
	rotations := 0
	trace := func(id int, v *ckks.Ciphertext) {
		if kinds[id] != polyir.OpRotate {
			return
		}
		rotations++
		if v.Level() != p.InLevel-1 {
			t.Errorf("rotation node %d at level %d, want InLevel−1 = %d", id, v.Level(), p.InLevel-1)
		}
	}
	out, err := p.Executor().Run(context.Background(), ev, ct, sched.RunOpts{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if rotations != len(p.Rotations) {
		t.Fatalf("traced %d rotations, the program uses %v", rotations, p.Rotations)
	}
	if out.Level() != p.OutLevel || out.Scale != p.OutScale {
		t.Fatalf("output %d/%g, registry advertises %d/%g", out.Level(), out.Scale, p.OutLevel, p.OutScale)
	}
}

// TestExecutorInnerSumAllocCeiling: xform64's BSGS inner sums are pending
// sums of plaintext products, each evaluated by one LinComb pass into
// pooled limbs. A warm run at logN 12 whose output is not released
// allocates about 0.09 MiB, mostly that output; with every intermediate
// allocated fresh it was 3.8 MiB, and the MulPlain → Add chain before that
// allocated a ciphertext per term, 17.8 MiB.
func TestExecutorInnerSumAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	p, ev, ct := oneShotFixture(t, "xform64")
	run := func() {
		if _, err := p.Executor().Run(context.Background(), ev, ct, sched.RunOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the ring pools and the operand cache
	const ceiling = 1 << 20
	if b := allocBytes(5, run); b > ceiling {
		t.Fatalf("a warm xform64 run allocated %.2f MiB, ceiling %.2f MiB", b/(1<<20), float64(ceiling)/(1<<20))
	}
}

// TestExecutorWarmRunAllocCeiling: every intermediate of a run comes from
// the ring's pool and goes back at its last use, so a warm one-shot run at
// its program's InLevel on the logN 12 chain, with its output released as
// the one-shot handler releases it once written, allocates under 1 MiB —
// the evaluator, the walk's bookkeeping and little else: 1.1, 0.6, 4.3 and
// 24.3 KiB measured for square, rotsum, logreg16 and xform64. With a fresh
// buffer per operation they allocated 193 KiB, 277 KiB, 3.4 MiB and 3.8 MiB.
func TestExecutorWarmRunAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	reg, err := NewRegistry(RegistryConfig{Literal: workloads.ServeParamsLiteral(12, 4, 20260805)})
	if err != nil {
		t.Fatal(err)
	}
	encr, keys := catalogKeys(t, reg)
	const ceiling = 1 << 20
	for _, name := range []string{"square", "rotsum", "logreg16", "xform64"} {
		p, ev, ct := oneShotProgram(t, reg, encr, keys, name)
		run := func() {
			out, err := p.Executor().Run(context.Background(), ev, ct, sched.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			ev.Release(out)
		}
		run() // warm the ring pools and the operand cache
		b := allocBytes(5, run)
		t.Logf("%s: %.1f KiB per warm run", name, b/(1<<10))
		if b > ceiling {
			t.Errorf("a warm %s run allocated %.2f MiB, ceiling 1 MiB", name, b/(1<<20))
		}
	}
}

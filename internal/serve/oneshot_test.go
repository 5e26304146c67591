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
	p, ok := reg.Program(name)
	if !ok {
		t.Fatalf("%s not in the logN 12 registry", name)
	}
	encr, keys := catalogKeys(t, reg)
	ev, err := tenantEvaluator(reg.Params, keys)
	if err != nil {
		t.Fatal(err)
	}
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
// sums of plaintext products, each evaluated by one LinComb pass. A warm
// run at logN 12 allocates about 3.8 MiB; the MulPlain → Add chain it
// replaced allocated a ciphertext per term, 17.8 MiB.
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
	const ceiling = 6 << 20
	if b := allocBytes(5, run); b > ceiling {
		t.Fatalf("a warm xform64 run allocated %.1f MiB, ceiling %d MiB", b/(1<<20), ceiling>>20)
	}
}

package sched

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"cinnamon/internal/ckks"
	"cinnamon/internal/dsl"
	"cinnamon/internal/polyir"
	"cinnamon/internal/workloads"
)

// buildGraph compiles a serve workload's batch-1 IR graph at the given
// virtual depth (params.MaxLevel() for catalog programs, spec.MinLevels
// for deep ones).
func buildGraph(t testing.TB, spec workloads.ServeWorkload, maxLevel int) *polyir.Graph {
	t.Helper()
	prog := dsl.NewProgram(dsl.Config{MaxLevel: maxLevel})
	dsl.StreamPool(prog, 1, func(i int, s *dsl.Stream) {
		x := s.Input(fmt.Sprintf("x%d", i), maxLevel)
		s.Output(fmt.Sprintf("y%d", i), spec.Build(s, x))
	})
	g, err := prog.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// encodeOperands mirrors the registry's plaintext encoding: every operand
// at MaxLevel, catalog-default values unless the spec pins its own.
func encodeOperands(t testing.TB, params *ckks.Parameters, enc *ckks.Encoder, spec workloads.ServeWorkload) (map[string]*ckks.Plaintext, map[string]float64) {
	t.Helper()
	pts := map[string]*ckks.Plaintext{}
	scales := map[string]float64{}
	for _, ps := range spec.Plaintexts {
		values := ps.Values
		if values == nil {
			name := ps.Name
			values = func(slots int) []complex128 { return workloads.ServeWeightVector(name, slots) }
		}
		scale := params.DefaultScale()
		if ps.Scale != nil {
			scale = ps.Scale(params)
		}
		pt, err := enc.Encode(values(params.Slots()), params.MaxLevel(), scale)
		if err != nil {
			t.Fatal(err)
		}
		pts[ps.Name] = pt
		scales[ps.Name] = scale
	}
	return pts, scales
}

// TestPlanMatchesEvaluator is the tracker's ground-truth check: for every
// catalog program that fits the parameter set, execute the graph on a real
// evaluator and compare each node's actual (level, scale) against the
// plan's prediction, op by op.
func TestPlanMatchesEvaluator(t *testing.T) {
	lit := workloads.ServeParamsLiteral(8, 4, 20260807)
	params, err := ckks.NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	enc := ckks.NewEncoder(params)

	type compiled struct {
		spec workloads.ServeWorkload
		g    *polyir.Graph
		plan *Plan
		pts  map[string]*ckks.Plaintext
	}
	var progs []compiled
	rotSet := map[int]bool{}
	for _, spec := range workloads.ServeWorkloads() {
		if spec.MinLevels > params.MaxLevel() || spec.MinSlots > params.Slots() {
			continue
		}
		g := buildGraph(t, spec, params.MaxLevel())
		pts, ptScales := encodeOperands(t, params, enc, spec)
		plan, err := BuildPlan(g, params, ptScales, 0)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if plan.Bootstraps != 0 {
			t.Fatalf("%s fits the chain but plans %d bootstraps", spec.Name, plan.Bootstraps)
		}
		progs = append(progs, compiled{spec, g, plan, pts})
		for _, k := range plan.Rotations {
			rotSet[k] = true
		}
	}
	if len(progs) < 4 {
		t.Fatalf("only %d catalog programs fit the 4-level test parameters", len(progs))
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
	rots := make([]int, 0, len(rotSet))
	for k := range rotSet {
		rots = append(rots, k)
	}
	sort.Ints(rots)
	rtks, err := kg.GenRotationKeySet(sk, rots, false)
	if err != nil {
		t.Fatal(err)
	}
	ev := ckks.NewEvaluator(params, rlk, rtks)
	encr := ckks.NewEncryptor(params, pk)

	v := make([]complex128, params.Slots())
	for i := range v {
		v[i] = complex(0.25, 0)
	}
	for _, p := range progs {
		in := v
		if p.spec.MakeInput != nil {
			// Packing-constrained programs still only need levels/scales
			// here, but a well-formed input keeps the run meaningful.
			in = p.spec.MakeInput(rand.New(rand.NewSource(20260807)), params.Slots())
		}
		pt, err := enc.Encode(in, params.MaxLevel(), params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		ct, err := encr.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(p.g, params, p.pts)
		trace := func(id int, live *ckks.Ciphertext) {
			want, ok := p.plan.States[id]
			if !ok {
				return
			}
			if live.Level() != want.Level {
				t.Errorf("%s node %d: level %d, plan predicted %d", p.spec.Name, id, live.Level(), want.Level)
			}
			if !sameScale(live.Scale, want.Scale) {
				t.Errorf("%s node %d: scale %g, plan predicted %g (rel err %g)",
					p.spec.Name, id, live.Scale, want.Scale, math.Abs(live.Scale-want.Scale)/want.Scale)
			}
		}
		out, err := ex.Run(context.Background(), ev, ct, RunOpts{Trace: trace})
		if err != nil {
			t.Fatalf("%s: %v", p.spec.Name, err)
		}
		if out.Level() != p.plan.OutLevel || !sameScale(out.Scale, p.plan.OutScale) {
			t.Fatalf("%s: output (level %d, scale %g), plan (level %d, scale %g)",
				p.spec.Name, out.Level(), out.Scale, p.plan.OutLevel, p.plan.OutScale)
		}
	}
}

// TestDeepPlanInsertsBootstraps pins the deep program's schedule: at 16
// physical levels with exit level 4, the depth-20 logistic regression
// needs exactly one mid-program refresh for a MaxLevel arrival, ending at
// level 0 with the default scale.
func TestDeepPlanInsertsBootstraps(t *testing.T) {
	spec, ok := workloads.ServeWorkloadByName("logreg16-deep")
	if !ok {
		t.Fatal("logreg16-deep not in the catalog")
	}
	lit := workloads.ServeBootstrapParamsLiteral(8, 16, 20260807)
	params, err := ckks.NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, spec, spec.MinLevels)

	plan, err := BuildPlan(g, params, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bootstraps != 1 {
		t.Fatalf("plan schedules %d bootstraps, want exactly 1", plan.Bootstraps)
	}
	if len(plan.RefreshBefore) == 0 {
		t.Fatal("plan has no refresh points")
	}
	if plan.OutLevel != 0 {
		t.Fatalf("deep plan exits at level %d, want 0", plan.OutLevel)
	}
	if !sameScale(plan.OutScale, params.DefaultScale()) {
		t.Fatalf("deep plan output scale %g, want the default scale", plan.OutScale)
	}

	// Without a refresh service the same graph must fail to plan, with an
	// error that says why.
	if _, err := BuildPlan(g, params, nil, 0); err == nil {
		t.Fatal("depth-20 program planned against a 16-level chain without bootstrapping")
	}
}

// TestPlanRejectsScaleMixing: adding a scale-Δ² value to a scale-Δ value
// is a frontend bug the tracker must catch at compile time.
func TestPlanRejectsScaleMixing(t *testing.T) {
	lit := workloads.ServeParamsLiteral(8, 4, 20260807)
	params, err := ckks.NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	prog := dsl.NewProgram(dsl.Config{MaxLevel: params.MaxLevel()})
	dsl.StreamPool(prog, 1, func(i int, s *dsl.Stream) {
		x := s.Input(fmt.Sprintf("x%d", i), params.MaxLevel())
		s.Output(fmt.Sprintf("y%d", i), x.Mul(x).Add(x)) // Δ² + Δ
	})
	g, err := prog.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlan(g, params, nil, 0); err == nil {
		t.Fatal("scale-mixing add planned without error")
	}
}

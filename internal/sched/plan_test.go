package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
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

// planTrace builds the plan and records the walk's prediction for every node.
func planTrace(t testing.TB, g *polyir.Graph, params *ckks.Parameters, ptScales map[string]float64, exitLevel int) (*Plan, map[int]NodeState) {
	t.Helper()
	states := map[int]NodeState{}
	plan, err := buildPlan(g, params, ptScales, exitLevel, func(id int, s NodeState) { states[id] = s })
	if err != nil {
		t.Fatal(err)
	}
	return plan, states
}

// runAgainstPlan runs ex on ct and fails t wherever a node's live (level,
// scale) differs from the plan walk's prediction, a node is in one trace and
// not the other, or the output differs from the plan's.
func runAgainstPlan(t *testing.T, name string, ex *Executor, ev *ckks.Evaluator, ct *ckks.Ciphertext, refresh RefreshFunc, plan *Plan, want map[int]NodeState) {
	t.Helper()
	seen := 0
	trace := func(id int, live *ckks.Ciphertext) {
		seen++
		w, ok := want[id]
		if !ok {
			t.Errorf("%s node %d: executed but not in the plan walk's trace", name, id)
			return
		}
		if live.Level() != w.Level {
			t.Errorf("%s node %d: level %d, plan predicted %d", name, id, live.Level(), w.Level)
		}
		if !sameScale(live.Scale, w.Scale) {
			t.Errorf("%s node %d: scale %g, plan predicted %g (rel err %g)",
				name, id, live.Scale, w.Scale, math.Abs(live.Scale-w.Scale)/w.Scale)
		}
	}
	out, err := ex.Run(context.Background(), ev, ct, RunOpts{Refresh: refresh, Trace: trace})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if seen != len(want) {
		t.Fatalf("%s: executor traced %d nodes, plan walk %d", name, seen, len(want))
	}
	if out.Level() != plan.OutLevel || !sameScale(out.Scale, plan.OutScale) {
		t.Fatalf("%s: output (level %d, scale %g), plan (level %d, scale %g)",
			name, out.Level(), out.Scale, plan.OutLevel, plan.OutScale)
	}
}

// TestPlanMatchesEvaluator is the plan's ground-truth check on programs that
// fit the chain: for every catalog program that fits the parameter set,
// execute the graph on a real evaluator and compare each node's actual
// (level, scale) against the plan walk's prediction, op by op.
func TestPlanMatchesEvaluator(t *testing.T) {
	lit := workloads.ServeParamsLiteral(8, 4, 20260807)
	params, err := ckks.NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	enc := ckks.NewEncoder(params)

	type compiled struct {
		spec   workloads.ServeWorkload
		g      *polyir.Graph
		plan   *Plan
		states map[int]NodeState
		pts    map[string]*ckks.Plaintext
	}
	var progs []compiled
	var rots []int
	for _, spec := range workloads.ServeWorkloads() {
		if spec.MinLevels > params.MaxLevel() || spec.MinSlots > params.Slots() {
			continue
		}
		g := buildGraph(t, spec, params.MaxLevel())
		pts, ptScales := encodeOperands(t, params, enc, spec)
		plan, states := planTrace(t, g, params, ptScales, 0)
		if plan.Bootstraps != 0 {
			t.Fatalf("%s fits the chain but plans %d bootstraps", spec.Name, plan.Bootstraps)
		}
		progs = append(progs, compiled{spec, g, plan, states, pts})
		rots = append(rots, plan.Rotations...)
	}
	if len(progs) < 4 {
		t.Fatalf("only %d catalog programs fit the 4-level test parameters", len(progs))
	}

	ev, encr := testEvaluator(t, params, rots, false)

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
		ct := encryptAt(t, params, encr, in, params.MaxLevel())
		runAgainstPlan(t, p.spec.Name, NewExecutor(p.g, params, p.pts), ev, ct, nil, p.plan, p.states)
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
	if plan.OutLevel != 0 {
		t.Fatalf("deep plan exits at level %d, want 0", plan.OutLevel)
	}
	if !sameScale(plan.OutScale, params.DefaultScale()) {
		t.Fatalf("deep plan output scale %g, want the default scale", plan.OutScale)
	}

	// Without a refresh service the same graph must fail to plan, with an
	// error that says why.
	if _, err := BuildPlan(g, params, nil, 0); !errors.Is(err, ErrNoRefresh) {
		t.Fatalf("depth-20 program against a 16-level chain without bootstrapping: %v, want ErrNoRefresh", err)
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

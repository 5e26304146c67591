package sched

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cinnamon/internal/bootstrap"
	"cinnamon/internal/ckks"
	"cinnamon/internal/dsl"
	"cinnamon/internal/workloads"
)

// testEvaluator draws a secret key and returns an evaluator holding rlk and
// the rotation keys for rots (plus conj when asked), with an encryptor under
// the same key.
func testEvaluator(t testing.TB, params *ckks.Parameters, rots []int, conj bool) (*ckks.Evaluator, *ckks.Encryptor) {
	t.Helper()
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
	set := map[int]bool{}
	for _, k := range rots {
		set[k] = true
	}
	offsets := make([]int, 0, len(set))
	for k := range set {
		offsets = append(offsets, k)
	}
	sort.Ints(offsets)
	rtks, err := kg.GenRotationKeySet(sk, offsets, conj)
	if err != nil {
		t.Fatal(err)
	}
	return ckks.NewEvaluator(params, rlk, rtks), ckks.NewEncryptor(params, pk)
}

// encryptAt encrypts v at the given level and the default scale.
func encryptAt(t testing.TB, params *ckks.Parameters, encr *ckks.Encryptor, v []complex128, level int) *ckks.Ciphertext {
	t.Helper()
	pt, err := ckks.NewEncoder(params).Encode(v, level, params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestExplicitBootstrapLeavesArgument pins OpBootstrap in both domains: an
// explicit Bootstrap() is a new value, and a later consumer of its argument
// still sees the argument at its own level. The refresh is a stub returning
// a fresh encryption at the exit level and Δ.
func TestExplicitBootstrapLeavesArgument(t *testing.T) {
	params, err := ckks.NewParameters(workloads.ServeParamsLiteral(8, 4, 20260807))
	if err != nil {
		t.Fatal(err)
	}
	const exit = 2
	prog := dsl.NewProgram(dsl.Config{MaxLevel: params.MaxLevel(), BootstrapExitLevel: exit})
	dsl.StreamPool(prog, 1, func(i int, s *dsl.Stream) {
		x := s.Input("x", params.MaxLevel())
		fresh := x.Bootstrap()
		// x is squared after its bootstrap: at level 4, not the copy's 2.
		s.Output("y", x.Mul(x).Rescale().Mul(fresh).Rescale())
	})
	g, err := prog.Finish()
	if err != nil {
		t.Fatal(err)
	}
	plan, states := planTrace(t, g, params, nil, exit)
	if plan.Bootstraps != 1 || plan.OutLevel != 1 {
		t.Fatalf("plan: %d bootstraps, output level %d; want 1 and 1", plan.Bootstraps, plan.OutLevel)
	}

	ev, encr := testEvaluator(t, params, nil, false)
	zeros := make([]complex128, params.Slots())
	refreshes := 0
	stub := func(_ context.Context, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
		if ct.Level() != 0 {
			return nil, fmt.Errorf("refresh of a level-%d ciphertext", ct.Level())
		}
		refreshes++
		return encryptAt(t, params, encr, zeros, exit), nil
	}
	in := encryptAt(t, params, encr, zeros, params.MaxLevel())
	runAgainstPlan(t, "bootstrap-reuse", NewExecutor(g, params, nil), ev, in, stub, plan, states)
	if refreshes != plan.Bootstraps {
		t.Fatalf("%d refreshes ran, plan predicts %d", refreshes, plan.Bootstraps)
	}
}

// TestRefreshingWalkMatchesPlan pins the walk where it refreshes: the
// depth-20 logistic regression on a 16-level chain, run with a real
// bootstrap, refreshes exactly plan.Bootstraps times, and every node's
// (level, scale), the nodes after the refresh included, equals the plan
// walk's prediction.
func TestRefreshingWalkMatchesPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("a real bootstrap is expensive")
	}
	spec, ok := workloads.ServeWorkloadByName("logreg16-deep")
	if !ok {
		t.Fatal("logreg16-deep not in the catalog")
	}
	params, err := ckks.NewParameters(workloads.ServeBootstrapParamsLiteral(8, 16, 20260807))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := bootstrap.NewPrecomp(params, bootstrap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, spec, spec.MinLevels)
	pts, ptScales := encodeOperands(t, params, ckks.NewEncoder(params), spec)
	plan, states := planTrace(t, g, params, ptScales, pre.ExitLevel())
	if plan.Bootstraps < 1 {
		t.Fatalf("deep plan schedules %d bootstraps", plan.Bootstraps)
	}

	ev, encr := testEvaluator(t, params, append(append([]int(nil), plan.Rotations...), pre.Rotations()...), true)
	bs, err := pre.Bind(ev)
	if err != nil {
		t.Fatal(err)
	}
	refreshes := 0
	refresh := func(_ context.Context, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
		refreshes++
		return bs.Bootstrap(ct)
	}
	in := encryptAt(t, params, encr, spec.MakeInput(rand.New(rand.NewSource(20260807)), params.Slots()), params.MaxLevel())
	runAgainstPlan(t, spec.Name, NewExecutor(g, params, pts), ev, in, refresh, plan, states)
	if refreshes != plan.Bootstraps {
		t.Fatalf("%d refreshes ran, plan predicts %d", refreshes, plan.Bootstraps)
	}
}

// TestBuildPlanRejectsStreams: serving graphs are batch-1, so a node on any
// other stream fails to plan.
func TestBuildPlanRejectsStreams(t *testing.T) {
	params, err := ckks.NewParameters(workloads.ServeParamsLiteral(8, 4, 20260807))
	if err != nil {
		t.Fatal(err)
	}
	prog := dsl.NewProgram(dsl.Config{MaxLevel: params.MaxLevel()})
	dsl.StreamPool(prog, 2, func(i int, s *dsl.Stream) {
		x := s.Input(fmt.Sprintf("x%d", i), params.MaxLevel())
		s.Output(fmt.Sprintf("y%d", i), x.Mul(x).Rescale())
	})
	g, err := prog.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlan(g, params, nil, params.MaxLevel(), 0); err == nil {
		t.Fatal("a two-stream graph planned without error")
	}
}

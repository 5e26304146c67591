package sched

import (
	"context"
	"fmt"
	"sort"

	"cinnamon/internal/ckks"
	"cinnamon/internal/polyir"
)

// NodeState is the plan's prediction for one IR node's live value.
type NodeState struct {
	Level int
	Scale float64
}

// Plan is what the walk predicts for one compiled program graph and an
// input at a given level: the output metadata the registry advertises, the
// keys the program needs and the refreshes it performs.
type Plan struct {
	// OutLevel and OutScale describe the output.
	OutLevel int
	OutScale float64
	// Keys lists required evaluation-key IDs: rlk/conj first, then
	// rotations ascending. Rotations holds the numeric offsets.
	Keys      []string
	Rotations []int
	// Bootstraps counts the refreshes one execution performs when the input
	// arrives at the planned level (sessions resuming from lower levels may
	// need more; the executor's walk decides on the actual levels).
	Bootstraps int
}

// BuildPlan runs the walk over predicted (level, scale) states: the input
// enters at inLevel and the default scale, Mul multiplies scales, Rescale
// divides by the dropped modulus, and plaintext operands carry their scales
// from ptScales (the default scale when absent). Additions must mix equal
// scales, so a frontend scale-management bug fails here instead of at run
// time.
//
// inLevel is the level the input enters at, 0 … params.MaxLevel().
// exitLevel is the level a refresh restores (bootstrap Precomp.ExitLevel());
// pass 0 when bootstrapping is unavailable, and a program that needs a
// refresh then fails to plan with ErrNoRefresh.
func BuildPlan(g *polyir.Graph, params *ckks.Parameters, ptScales map[string]float64, inLevel, exitLevel int) (*Plan, error) {
	return buildPlan(g, params, ptScales, inLevel, exitLevel, nil)
}

// buildPlan is BuildPlan with the walk's per-node trace.
func buildPlan(g *polyir.Graph, params *ckks.Parameters, ptScales map[string]float64, inLevel, exitLevel int, trace func(int, NodeState)) (*Plan, error) {
	if inLevel < 0 || inLevel > params.MaxLevel() {
		return nil, fmt.Errorf("sched: input level %d outside the chain [0,%d]", inLevel, params.MaxLevel())
	}
	pr := &predict{params: params, ptScales: ptScales, exitLevel: exitLevel, rots: map[int]bool{}}
	delta := params.DefaultScale()
	out, err := walk[NodeState](context.Background(), g, pr, delta, NodeState{inLevel, delta}, trace, nil)
	if err != nil {
		return nil, err
	}
	p := &Plan{OutLevel: out.Level, OutScale: out.Scale, Bootstraps: pr.refreshes}
	for k := range pr.rots {
		p.Rotations = append(p.Rotations, k)
	}
	sort.Ints(p.Rotations)
	// Key order: rlk, conj, then rotations by numeric offset — lexical
	// sorting would interleave rot:16 before rot:2.
	if pr.rlk {
		p.Keys = append(p.Keys, "rlk")
	}
	if pr.conj {
		p.Keys = append(p.Keys, "conj")
	}
	for _, k := range p.Rotations {
		p.Keys = append(p.Keys, fmt.Sprintf("rot:%d", k))
	}
	return p, nil
}

// predict is the walk's compile-time domain: a value is its predicted
// (level, scale). It checks the scale agreements the evaluator checks at run
// time and records the keys and refreshes the walk uses.
type predict struct {
	params    *ckks.Parameters
	ptScales  map[string]float64
	exitLevel int

	rlk, conj bool
	rots      map[int]bool
	refreshes int
}

func (p *predict) ptScale(name string) float64 {
	if s, ok := p.ptScales[name]; ok {
		return s
	}
	return p.params.DefaultScale()
}

func (p *predict) level(s NodeState) int     { return s.Level }
func (p *predict) scale(s NodeState) float64 { return s.Scale }

func (p *predict) dropLevel(s NodeState, level int) (NodeState, error) {
	return NodeState{level, s.Scale}, nil
}

func (p *predict) add(a, b NodeState) (NodeState, error) {
	if !sameScale(a.Scale, b.Scale) {
		return a, fmt.Errorf("mixes scales %g and %g", a.Scale, b.Scale)
	}
	return a, nil
}

func (p *predict) sub(a, b NodeState) (NodeState, error) { return p.add(a, b) }
func (p *predict) neg(s NodeState) (NodeState, error)    { return s, nil }

func (p *predict) addPlain(s NodeState, name string) (NodeState, error) {
	if ps := p.ptScale(name); !sameScale(s.Scale, ps) {
		return s, fmt.Errorf("adds plaintext %q at scale %g to a ciphertext at %g", name, ps, s.Scale)
	}
	return s, nil
}

func (p *predict) mulPlain(s NodeState, name string) (NodeState, error) {
	return NodeState{s.Level, s.Scale * p.ptScale(name)}, nil
}

func (p *predict) mulCt(a, b NodeState) (NodeState, error) {
	p.rlk = true
	return NodeState{a.Level, a.Scale * b.Scale}, nil
}

func (p *predict) rotate(s NodeState, k int) (NodeState, error) {
	p.rots[k] = true
	return s, nil
}

func (p *predict) conjugate(s NodeState) (NodeState, error) {
	p.conj = true
	return s, nil
}

func (p *predict) rescale(s NodeState) (NodeState, error) {
	return NodeState{s.Level - 1, s.Scale / float64(p.params.QBasis.Moduli[s.Level])}, nil
}

// hold and drop: a predicted state has no storage to return.
func (p *predict) hold(NodeState) {}
func (p *predict) drop(NodeState) {}

func (p *predict) refresh(NodeState) (NodeState, error) {
	if p.exitLevel < 1 {
		return NodeState{}, ErrNoRefresh
	}
	p.refreshes++
	return NodeState{p.exitLevel, p.params.DefaultScale()}, nil
}

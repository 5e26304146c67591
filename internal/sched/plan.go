// Package sched runs compiled programs that may outlive their level budget.
// It has two parts:
//
//   - a level/scale tracker (BuildPlan) that follows every live ciphertext
//     through a compiled program's IR graph, predicting the physical level
//     and scale after each operation and deciding exactly where a bootstrap
//     must be inserted for programs whose multiplicative depth exceeds the
//     parameter chain — splitting deep programs into resumable segments
//     separated by refresh points;
//   - a replay executor (Executor) that runs the same graph op-by-op on a
//     real ckks.Evaluator, calling back into the caller's refresh hook
//     (RunOpts.Refresh) whenever the plan's insertion rule fires.
package sched

import (
	"fmt"
	"math"
	"sort"

	"cinnamon/internal/ckks"
	"cinnamon/internal/polyir"
)

// NodeState is the tracker's prediction for one IR node's live value.
type NodeState struct {
	Level int
	Scale float64
}

// Plan is the level/scale schedule for one compiled program graph: the
// per-node predictions, the refresh (bootstrap) insertion points, and the
// output metadata the registry advertises.
type Plan struct {
	// InLevel is the physical level inputs are assumed to arrive at
	// (params.MaxLevel()).
	InLevel int
	// OutLevel and OutScale describe the stream-0 output.
	OutLevel int
	OutScale float64
	// Keys lists required evaluation-key IDs: rlk/conj first, then
	// rotations ascending. Rotations holds the numeric offsets.
	Keys      []string
	Rotations []int
	// Bootstraps counts the refreshes one stream-0 execution performs when
	// the input arrives at InLevel (sessions resuming from lower levels may
	// need more; the executor decides dynamically with the same rule).
	Bootstraps int
	// RefreshBefore marks node IDs at least one of whose arguments the
	// tracker refreshes — the segment boundaries of a deep program.
	RefreshBefore map[int]bool
	// States maps node ID → predicted post-op state (stream 0 only; all
	// streams are identical).
	States map[int]NodeState
}

// sameScale matches the evaluator's own scale-agreement precondition.
func sameScale(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
}

// BuildPlan walks the (topologically ordered) IR graph tracking physical
// level and scale through every operation, exactly mirroring what a
// ckks.Evaluator will do at run time: inputs enter at params.MaxLevel() and
// the default scale, Mul multiplies scales, Rescale divides by the dropped
// modulus, binary ops align the higher operand down to the lower. Virtual
// DropLevel nodes (inserted by the DSL for its own level bookkeeping) are
// identity here — physical alignment is re-derived from the tracked state.
//
// exitLevel is the level a bootstrap refresh restores (bootstrap
// Precomp.ExitLevel()); pass 0 when bootstrapping is unavailable. The
// insertion rule: any multiplication argument sitting at level 0 is
// refreshed first (level 0 has no rescale budget left, so multiplying there
// is unusable). Refreshes are memoized per node — a value consumed twice is
// bootstrapped once. A refresh requires scale ≈ Δ (that is the bootstrap
// input contract); a graph that exhausts levels with a non-Δ scale fails to
// plan, as does a Rescale at level 0 (its scale would be Δ², which a
// refresh cannot accept).
func BuildPlan(g *polyir.Graph, params *ckks.Parameters, ptScales map[string]float64, exitLevel int) (*Plan, error) {
	delta := params.DefaultScale()
	p := &Plan{
		InLevel:       params.MaxLevel(),
		RefreshBefore: map[int]bool{},
		States:        map[int]NodeState{},
	}
	states := map[int]NodeState{} // all streams, by node ID
	keySet := map[string]bool{}
	rotSet := map[int]bool{}
	ptScale := func(name string) float64 {
		if s, ok := ptScales[name]; ok {
			return s
		}
		return delta
	}
	// refresh lifts the value produced by node id back to exitLevel,
	// memoized by mutating its tracked state.
	refresh := func(n *polyir.Node, id int) error {
		if exitLevel < 1 {
			return fmt.Errorf("sched: node %d (%v) needs a bootstrap but bootstrapping is unavailable (program too deep for the modulus chain)", n.ID, n.Kind)
		}
		st := states[id]
		if !sameScale(st.Scale, delta) {
			return fmt.Errorf("sched: node %d (%v) needs a bootstrap of node %d at scale %g, want the default scale %g", n.ID, n.Kind, id, st.Scale, delta)
		}
		states[id] = NodeState{Level: exitLevel, Scale: delta}
		p.RefreshBefore[n.ID] = true
		if n.Stream == 0 {
			p.Bootstraps++
		}
		return nil
	}
	// alignedPair refreshes level-0 multiplication arguments, then aligns
	// both to the lower level (matching ckks alignLevels/DropLevel).
	found := false
	for _, n := range g.Nodes {
		switch n.Kind {
		case polyir.OpInput:
			states[n.ID] = NodeState{Level: p.InLevel, Scale: delta}
		case polyir.OpDropLevel:
			// Virtual: the DSL inserts these to reconcile its own level
			// bookkeeping; physically the executor aligns on demand.
			states[n.ID] = states[n.Args[0].ID]
		case polyir.OpAdd, polyir.OpSub:
			a, b := states[n.Args[0].ID], states[n.Args[1].ID]
			if !sameScale(a.Scale, b.Scale) {
				return nil, fmt.Errorf("sched: node %d (%v) mixes scales %g and %g", n.ID, n.Kind, a.Scale, b.Scale)
			}
			lvl := a.Level
			if b.Level < lvl {
				lvl = b.Level
			}
			states[n.ID] = NodeState{Level: lvl, Scale: a.Scale}
		case polyir.OpAddPlain:
			a := states[n.Args[0].ID]
			if s := ptScale(n.Name); !sameScale(a.Scale, s) {
				return nil, fmt.Errorf("sched: node %d adds plaintext %q at scale %g to ciphertext at %g", n.ID, n.Name, s, a.Scale)
			}
			states[n.ID] = a
		case polyir.OpNeg, polyir.OpConjugate, polyir.OpRotate:
			states[n.ID] = states[n.Args[0].ID]
			if n.Kind == polyir.OpRotate {
				keySet[fmt.Sprintf("rot:%d", n.Rot)] = true
				rotSet[n.Rot] = true
			}
			if n.Kind == polyir.OpConjugate {
				keySet["conj"] = true
			}
		case polyir.OpMulCt:
			for _, arg := range n.Args {
				if states[arg.ID].Level == 0 {
					if err := refresh(n, arg.ID); err != nil {
						return nil, err
					}
				}
			}
			a, b := states[n.Args[0].ID], states[n.Args[1].ID]
			lvl := a.Level
			if b.Level < lvl {
				lvl = b.Level
			}
			states[n.ID] = NodeState{Level: lvl, Scale: a.Scale * b.Scale}
			keySet["rlk"] = true
		case polyir.OpMulPlain:
			if states[n.Args[0].ID].Level == 0 {
				if err := refresh(n, n.Args[0].ID); err != nil {
					return nil, err
				}
			}
			a := states[n.Args[0].ID]
			states[n.ID] = NodeState{Level: a.Level, Scale: a.Scale * ptScale(n.Name)}
		case polyir.OpRescale:
			a := states[n.Args[0].ID]
			if a.Level == 0 {
				return nil, fmt.Errorf("sched: node %d rescales at level 0 (scale %g) — the program multiplies without a rescale budget; restructure so depth is consumed before level 0", n.ID, a.Scale)
			}
			states[n.ID] = NodeState{Level: a.Level - 1, Scale: a.Scale / float64(params.QBasis.Moduli[a.Level])}
		case polyir.OpBootstrap:
			// Explicit refresh requested by the frontend.
			st := states[n.Args[0].ID]
			if exitLevel < 1 {
				return nil, fmt.Errorf("sched: node %d requests a bootstrap but bootstrapping is unavailable", n.ID)
			}
			if !sameScale(st.Scale, delta) {
				return nil, fmt.Errorf("sched: node %d bootstraps at scale %g, want %g", n.ID, st.Scale, delta)
			}
			states[n.ID] = NodeState{Level: exitLevel, Scale: delta}
			p.RefreshBefore[n.ID] = true
			if n.Stream == 0 {
				p.Bootstraps++
			}
		case polyir.OpOutput:
			st := states[n.Args[0].ID]
			states[n.ID] = st
			if n.Stream == 0 {
				p.OutLevel, p.OutScale = st.Level, st.Scale
				found = true
			}
		default:
			return nil, fmt.Errorf("sched: cannot plan through %v (unsupported in serving programs)", n.Kind)
		}
		if n.Stream == 0 {
			p.States[n.ID] = states[n.ID]
		}
	}
	if !found {
		return nil, fmt.Errorf("sched: program has no stream-0 output")
	}
	for k := range rotSet {
		p.Rotations = append(p.Rotations, k)
	}
	sort.Ints(p.Rotations)
	// Key order: rlk, conj, then rotations by numeric offset — lexical
	// sorting would interleave rot:16 before rot:2.
	for _, id := range []string{"rlk", "conj"} {
		if keySet[id] {
			p.Keys = append(p.Keys, id)
		}
	}
	for _, k := range p.Rotations {
		p.Keys = append(p.Keys, fmt.Sprintf("rot:%d", k))
	}
	return p, nil
}

// Package sched runs compiled programs that may outlive their level budget.
// One walk carries every value's level through a batch-1 program graph and
// applies the level and refresh rule. It is generic over the value it
// carries, and has two value domains:
//
//   - ciphertexts on a real ckks.Evaluator (Executor.Run), refreshed through
//     the caller's hook (RunOpts.Refresh). The rule fires on the actual
//     runtime level, so a one-shot entering at MaxLevel refreshes where the
//     plan says and a session step resuming from a lower level refreshes
//     more;
//   - predicted (level, scale) states (BuildPlan), which check the scale
//     arithmetic at compile time and collect the program's keys, rotations,
//     output metadata and refresh count for an input at MaxLevel.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cinnamon/internal/polyir"
)

// ErrNoRefresh marks a run whose input ran out of levels with no refresh
// service to lift it: the caller's input, not the evaluator, is at fault.
var ErrNoRefresh = errors.New("sched: levels exhausted and no refresh service is configured")

// domain is a value domain the walk runs over. Each method is one operation
// on operands the walk has already aligned and refreshed.
type domain[V any] interface {
	level(V) int
	scale(V) float64
	dropLevel(v V, level int) (V, error)
	add(a, b V) (V, error)
	sub(a, b V) (V, error)
	neg(V) (V, error)
	addPlain(v V, name string) (V, error)
	mulPlain(v V, name string) (V, error)
	mulCt(a, b V) (V, error)
	rotate(v V, k int) (V, error)
	conjugate(V) (V, error)
	rescale(V) (V, error)
	// refresh lifts a level-0 value at the default scale to the bootstrap
	// exit level, or fails with ErrNoRefresh when nothing can.
	refresh(V) (V, error)
}

// sameScale matches the evaluator's own scale-agreement precondition.
func sameScale(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
}

// walk runs the topologically ordered batch-1 graph g over domain d from the
// input value in, calls trace (if set) with every node's value, and returns
// the output's value. The rule, applied to the domain's own levels:
//
//   - DropLevel is identity: the DSL inserts it for its own level
//     bookkeeping, and Add, Sub and MulCt align their operands where they
//     consume them by dropping the higher one to the lower's level;
//   - a MulCt or MulPlain argument at level 0 is refreshed first. The lift
//     replaces the argument's value for every later consumer, so a value
//     consumed twice refreshes once;
//   - an explicit Bootstrap drops its argument to level 0 and refreshes that
//     copy into a new value; the argument keeps its own;
//   - a refresh needs scale ≈ delta (the bootstrap input contract), and a
//     Rescale at level 0 fails: its scale would be Δ², which no refresh
//     accepts.
func walk[V any](ctx context.Context, g *polyir.Graph, d domain[V], delta float64, in V, trace func(int, V)) (V, error) {
	var none V
	vals := make(map[int]V, len(g.Nodes))
	refresh := func(v V) (V, error) {
		if s := d.scale(v); !sameScale(s, delta) {
			return none, fmt.Errorf("refresh at scale %g, want the default scale %g", s, delta)
		}
		return d.refresh(v)
	}
	step := func(n *polyir.Node) (V, error) {
		if n.Kind == polyir.OpMulCt || n.Kind == polyir.OpMulPlain {
			for _, arg := range n.Args {
				if d.level(vals[arg.ID]) > 0 {
					continue
				}
				lifted, err := refresh(vals[arg.ID])
				if err != nil {
					return none, fmt.Errorf("refreshing node %d: %w", arg.ID, err)
				}
				vals[arg.ID] = lifted
			}
		}
		var a, b V
		var err error
		switch len(n.Args) {
		case 1:
			a = vals[n.Args[0].ID]
		case 2:
			a, b = vals[n.Args[0].ID], vals[n.Args[1].ID]
			if la, lb := d.level(a), d.level(b); la > lb {
				a, err = d.dropLevel(a, lb)
			} else if lb > la {
				b, err = d.dropLevel(b, la)
			}
			if err != nil {
				return none, err
			}
		}
		switch n.Kind {
		case polyir.OpInput:
			return in, nil
		case polyir.OpDropLevel, polyir.OpOutput:
			return a, nil
		case polyir.OpAdd:
			return d.add(a, b)
		case polyir.OpSub:
			return d.sub(a, b)
		case polyir.OpMulCt:
			return d.mulCt(a, b)
		case polyir.OpNeg:
			return d.neg(a)
		case polyir.OpAddPlain:
			return d.addPlain(a, n.Name)
		case polyir.OpMulPlain:
			return d.mulPlain(a, n.Name)
		case polyir.OpRotate:
			return d.rotate(a, n.Rot)
		case polyir.OpConjugate:
			return d.conjugate(a)
		case polyir.OpRescale:
			if d.level(a) == 0 {
				return none, fmt.Errorf("rescale at level 0 (scale %g): the program multiplies without a rescale budget; restructure so depth is consumed before level 0", d.scale(a))
			}
			return d.rescale(a)
		case polyir.OpBootstrap:
			if d.level(a) > 0 {
				if a, err = d.dropLevel(a, 0); err != nil {
					return none, err
				}
			}
			return refresh(a)
		}
		return none, fmt.Errorf("unsupported in serving programs")
	}
	var out V
	found := false
	for _, n := range g.Nodes {
		if err := ctx.Err(); err != nil {
			return none, err
		}
		if n.Stream != 0 {
			return none, fmt.Errorf("sched: node %d is on stream %d: serving graphs are batch-1", n.ID, n.Stream)
		}
		v, err := step(n)
		if err != nil {
			return none, fmt.Errorf("sched: node %d (%v): %w", n.ID, n.Kind, err)
		}
		vals[n.ID] = v
		if trace != nil {
			trace(n.ID, v)
		}
		if n.Kind == polyir.OpOutput {
			out, found = v, true
		}
	}
	if !found {
		return none, fmt.Errorf("sched: program has no output")
	}
	return out, nil
}

package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cinnamon/internal/ckks"
	"cinnamon/internal/polyir"
)

// RefreshFunc lifts an exhausted (level-0, scale-Δ) ciphertext back to the
// bootstrap exit level. It is called on the goroutine running the program
// and blocks it until the refreshed ciphertext (or an error) is back; ctx is
// the execution's context.
type RefreshFunc func(ctx context.Context, ct *ckks.Ciphertext) (*ckks.Ciphertext, error)

// TraceFunc observes every node's computed value (stream-0 executions only
// have stream-0 nodes); tests use it to pin the plan's predictions against
// evaluator reality.
type TraceFunc func(id int, ct *ckks.Ciphertext)

// ErrNoRefresh marks a run whose input ran out of levels with no refresh
// service to lift it: the caller's input, not the evaluator, is at fault.
var ErrNoRefresh = errors.New("sched: levels exhausted and no refresh service is configured")

// RunOpts configures one execution.
type RunOpts struct {
	// Refresh services bootstrap insertions. nil means the program must fit
	// the remaining levels or fail with ErrNoRefresh.
	Refresh RefreshFunc
	// Trace, if set, is called after every node with its live value.
	Trace TraceFunc
}

// Executor replays a compiled batch-1 program graph op-by-op on a real
// ckks.Evaluator, inserting refreshes with the same rule the Plan used: any
// multiplication argument at level 0 is bootstrapped first (memoized per
// node, so a value consumed twice refreshes once). Because the rule is
// applied to the *actual* runtime level rather than the planned one, the
// same executor serves one-shot requests entering at MaxLevel and session
// steps resuming from whatever level the previous step left.
//
// The executor itself is stateless across runs apart from a cache of
// level-restricted plaintext operands; it is safe for concurrent use by
// any number of goroutines, each with its own evaluator.
type Executor struct {
	Graph      *polyir.Graph
	Params     *ckks.Parameters
	Plaintexts map[string]*ckks.Plaintext // encoded at MaxLevel

	mu   sync.Mutex
	ptAt map[ptKey]*ckks.Plaintext
}

type ptKey struct {
	name  string
	level int
}

// NewExecutor builds an executor over a batch-1 graph. plaintexts is the
// registry's operand map, encoded at MaxLevel and shared read-only.
func NewExecutor(g *polyir.Graph, params *ckks.Parameters, plaintexts map[string]*ckks.Plaintext) *Executor {
	return &Executor{Graph: g, Params: params, Plaintexts: plaintexts, ptAt: map[ptKey]*ckks.Plaintext{}}
}

// plaintextAt returns the named operand restricted to the given level.
// Restriction is an exact residue-subset view (the encoded values are
// unchanged), cached per (name, level).
func (ex *Executor) plaintextAt(name string, level int) (*ckks.Plaintext, error) {
	full, ok := ex.Plaintexts[name]
	if !ok {
		return nil, fmt.Errorf("sched: program references unknown plaintext %q", name)
	}
	if full.Level() == level {
		return full, nil
	}
	key := ptKey{name, level}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if pt, ok := ex.ptAt[key]; ok {
		return pt, nil
	}
	basis, err := ex.Params.BasisAtLevel(level)
	if err != nil {
		return nil, err
	}
	poly, err := ex.Params.Ring.Restrict(full.Poly, basis)
	if err != nil {
		return nil, err
	}
	pt := &ckks.Plaintext{Poly: poly, Scale: full.Scale, LevelV: level}
	ex.ptAt[key] = pt
	return pt, nil
}

// Run executes the graph on in (the single stream-0 input) and returns the
// stream-0 output. The evaluator carries the caller's keys; refreshes go
// through opts.Refresh.
func (ex *Executor) Run(ctx context.Context, ev *ckks.Evaluator, in *ckks.Ciphertext, opts RunOpts) (*ckks.Ciphertext, error) {
	vals := map[int]*ckks.Ciphertext{}
	refreshed := map[int]bool{}
	delta := ex.Params.DefaultScale()
	// refresh replaces node id's live value with its bootstrapped lift,
	// memoized so shared subexpressions bootstrap once.
	refresh := func(id int) error {
		if refreshed[id] {
			return nil
		}
		ct := vals[id]
		if opts.Refresh == nil {
			return fmt.Errorf("%w: at node %d (enable bootstrapping)", ErrNoRefresh, id)
		}
		if !sameScale(ct.Scale, delta) {
			return fmt.Errorf("sched: refresh of node %d at scale %g, want the default scale %g", id, ct.Scale, delta)
		}
		out, err := opts.Refresh(ctx, ct)
		if err != nil {
			return fmt.Errorf("sched: refresh: %w", err)
		}
		vals[id] = out
		refreshed[id] = true
		return nil
	}
	// align drops the higher of two live values to the lower's level.
	align := func(a, b *ckks.Ciphertext) (*ckks.Ciphertext, *ckks.Ciphertext, error) {
		var err error
		if a.Level() > b.Level() {
			a, err = ev.DropLevel(a, b.Level())
		} else if b.Level() > a.Level() {
			b, err = ev.DropLevel(b, a.Level())
		}
		return a, b, err
	}
	var out *ckks.Ciphertext
	for _, n := range ex.Graph.Nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var v *ckks.Ciphertext
		var err error
		switch n.Kind {
		case polyir.OpInput:
			v = in
		case polyir.OpDropLevel:
			// Virtual DSL bookkeeping: physical alignment happens on demand
			// at the consuming op.
			v = vals[n.Args[0].ID]
		case polyir.OpAdd, polyir.OpSub:
			a, b, aerr := align(vals[n.Args[0].ID], vals[n.Args[1].ID])
			if aerr != nil {
				return nil, aerr
			}
			if n.Kind == polyir.OpAdd {
				v, err = ev.Add(a, b)
			} else {
				v, err = ev.Sub(a, b)
			}
		case polyir.OpNeg:
			v = ev.Neg(vals[n.Args[0].ID])
		case polyir.OpAddPlain:
			a := vals[n.Args[0].ID]
			pt, perr := ex.plaintextAt(n.Name, a.Level())
			if perr != nil {
				return nil, perr
			}
			v, err = ev.AddPlain(a, pt)
		case polyir.OpMulPlain:
			if vals[n.Args[0].ID].Level() == 0 {
				if err := refresh(n.Args[0].ID); err != nil {
					return nil, err
				}
			}
			a := vals[n.Args[0].ID]
			pt, perr := ex.plaintextAt(n.Name, a.Level())
			if perr != nil {
				return nil, perr
			}
			v, err = ev.MulPlain(a, pt)
		case polyir.OpMulCt:
			for _, arg := range n.Args {
				if vals[arg.ID].Level() == 0 {
					if err := refresh(arg.ID); err != nil {
						return nil, err
					}
				}
			}
			a, b, aerr := align(vals[n.Args[0].ID], vals[n.Args[1].ID])
			if aerr != nil {
				return nil, aerr
			}
			v, err = ev.MulRelin(a, b)
		case polyir.OpRotate:
			v, err = ev.Rotate(vals[n.Args[0].ID], n.Rot)
		case polyir.OpConjugate:
			v, err = ev.Conjugate(vals[n.Args[0].ID])
		case polyir.OpRescale:
			if vals[n.Args[0].ID].Level() == 0 {
				return nil, fmt.Errorf("sched: node %d rescales at level 0", n.ID)
			}
			v, err = ev.Rescale(vals[n.Args[0].ID])
		case polyir.OpBootstrap:
			a := vals[n.Args[0].ID]
			if a.Level() != 0 {
				if a, err = ev.DropLevel(a, 0); err != nil {
					return nil, err
				}
				vals[n.Args[0].ID] = a
			}
			refreshed[n.Args[0].ID] = false // explicit request always refreshes
			if err := refresh(n.Args[0].ID); err != nil {
				return nil, err
			}
			v = vals[n.Args[0].ID]
		case polyir.OpOutput:
			v = vals[n.Args[0].ID]
			if n.Stream == 0 {
				out = v
			}
		default:
			return nil, fmt.Errorf("sched: cannot execute %v", n.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("sched: node %d (%v): %w", n.ID, n.Kind, err)
		}
		vals[n.ID] = v
		if opts.Trace != nil {
			opts.Trace(n.ID, v)
		}
	}
	if out == nil {
		return nil, fmt.Errorf("sched: program has no stream-0 output")
	}
	return out, nil
}

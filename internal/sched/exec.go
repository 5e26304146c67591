package sched

import (
	"context"
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

// TraceFunc observes every node's computed value; tests use it to pin the
// plan's predictions against evaluator reality.
type TraceFunc func(id int, ct *ckks.Ciphertext)

// RunOpts configures one execution.
type RunOpts struct {
	// Refresh services bootstrap insertions. nil means the program must fit
	// the remaining levels or fail with ErrNoRefresh.
	Refresh RefreshFunc
	// Trace, if set, is called after every node with its live value.
	Trace TraceFunc
}

// Executor runs a compiled batch-1 program graph op by op on a real
// ckks.Evaluator: it is the walk BuildPlan runs, over ciphertexts instead of
// predicted states. The rule fires on the actual runtime level, so the same
// executor serves one-shot requests entering at the planned level and
// session steps resuming from whatever level the previous step left.
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

// Run executes the graph on in (its one input) and returns its output. The
// evaluator carries the caller's keys; refreshes go through opts.Refresh.
func (ex *Executor) Run(ctx context.Context, ev *ckks.Evaluator, in *ckks.Ciphertext, opts RunOpts) (*ckks.Ciphertext, error) {
	r := &run{ctx: ctx, ex: ex, ev: ev, hook: opts.Refresh}
	return walk[*ckks.Ciphertext](ctx, ex.Graph, r, ex.Params.DefaultScale(), in, opts.Trace)
}

// run is the walk's runtime domain: a value is a ciphertext on ev.
type run struct {
	ctx  context.Context
	ex   *Executor
	ev   *ckks.Evaluator
	hook RefreshFunc
}

func (r *run) level(ct *ckks.Ciphertext) int     { return ct.Level() }
func (r *run) scale(ct *ckks.Ciphertext) float64 { return ct.Scale }

func (r *run) dropLevel(ct *ckks.Ciphertext, level int) (*ckks.Ciphertext, error) {
	return r.ev.DropLevel(ct, level)
}

func (r *run) add(a, b *ckks.Ciphertext) (*ckks.Ciphertext, error)   { return r.ev.Add(a, b) }
func (r *run) sub(a, b *ckks.Ciphertext) (*ckks.Ciphertext, error)   { return r.ev.Sub(a, b) }
func (r *run) neg(ct *ckks.Ciphertext) (*ckks.Ciphertext, error)     { return r.ev.Neg(ct), nil }
func (r *run) mulCt(a, b *ckks.Ciphertext) (*ckks.Ciphertext, error) { return r.ev.MulRelin(a, b) }
func (r *run) rotate(ct *ckks.Ciphertext, k int) (*ckks.Ciphertext, error) {
	return r.ev.Rotate(ct, k)
}
func (r *run) conjugate(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) { return r.ev.Conjugate(ct) }
func (r *run) rescale(ct *ckks.Ciphertext) (*ckks.Ciphertext, error)   { return r.ev.Rescale(ct) }

func (r *run) addPlain(ct *ckks.Ciphertext, name string) (*ckks.Ciphertext, error) {
	return r.withPlain(ct, name, r.ev.AddPlain)
}

func (r *run) mulPlain(ct *ckks.Ciphertext, name string) (*ckks.Ciphertext, error) {
	return r.withPlain(ct, name, r.ev.MulPlain)
}

// withPlain applies op to ct and the named operand at ct's level.
func (r *run) withPlain(ct *ckks.Ciphertext, name string, op func(*ckks.Ciphertext, *ckks.Plaintext) (*ckks.Ciphertext, error)) (*ckks.Ciphertext, error) {
	pt, err := r.ex.plaintextAt(name, ct.Level())
	if err != nil {
		return nil, err
	}
	return op(ct, pt)
}

func (r *run) refresh(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	if r.hook == nil {
		return nil, ErrNoRefresh
	}
	return r.hook(r.ctx, ct)
}

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
	var trace func(int, *value)
	var traceErr error
	if opts.Trace != nil {
		trace = func(id int, v *value) {
			ct, err := r.force(v)
			if err != nil {
				if traceErr == nil {
					traceErr = fmt.Errorf("sched: node %d: %w", id, err)
				}
				return
			}
			opts.Trace(id, ct)
		}
	}
	out, err := walk[*value](ctx, ex.Graph, r, ex.Params.DefaultScale(), &value{ct: in}, trace)
	if err == nil {
		err = traceErr
	}
	if err != nil {
		return nil, err
	}
	return r.force(out)
}

// value is the run domain's value: a ciphertext, or a pending sum Σ ctₖ ⊙ ptₖ
// of plaintext products at level. A MulPlain starts a one-term sum and an Add
// of two pending sums at one level and scale concatenates their terms, so an
// inner product of a linear transform costs one ckks.LinComb pass instead of
// a MulPlain and an Add per term. Any other consumer forces the sum once and
// it becomes the ciphertext. LinComb returns the canonical residue of the
// exact sum, so the forced value is limb for limb what the MulPlain → Add
// chain returns, and its scale is the first term's, as Add's is.
type value struct {
	ct    *ckks.Ciphertext // nil while the sum is pending
	terms []term           // a pending sum's plaintext products
	level int              // a pending sum's level; its terms may sit higher
	scale float64          // a pending sum's scale: its first term's
}

// term is one plaintext product of a pending sum; pt sits at ct's level.
type term struct {
	ct *ckks.Ciphertext
	pt *ckks.Plaintext
}

// run is the walk's runtime domain: a value is a ciphertext on ev or a
// pending sum of plaintext products.
type run struct {
	ctx  context.Context
	ex   *Executor
	ev   *ckks.Evaluator
	hook RefreshFunc
}

// force returns v's ciphertext, evaluating a pending sum on first use: one
// term is ev.MulPlain, more are one LinComb pass that reads every operand
// through its limb prefix at the sum's level.
func (r *run) force(v *value) (*ckks.Ciphertext, error) {
	if v.ct != nil {
		return v.ct, nil
	}
	var ct *ckks.Ciphertext
	var err error
	if t := v.terms[0]; len(v.terms) == 1 && t.ct.Level() == v.level {
		ct, err = r.ev.MulPlain(t.ct, t.pt)
	} else {
		ct, err = r.linComb(v)
	}
	if err != nil {
		return nil, err
	}
	v.ct, v.terms = ct, nil
	return ct, nil
}

func (r *run) linComb(v *value) (*ckks.Ciphertext, error) {
	lc, err := r.ev.NewLinComb(v.level)
	if err != nil {
		return nil, err
	}
	for _, t := range v.terms {
		if err := lc.AddMulPlain(t.ct, t.pt); err != nil {
			lc.Release()
			return nil, err
		}
	}
	return lc.Sum()
}

// on forces v and applies op to its ciphertext.
func (r *run) on(v *value, op func(*ckks.Ciphertext) (*ckks.Ciphertext, error)) (*value, error) {
	ct, err := r.force(v)
	if err != nil {
		return nil, err
	}
	out, err := op(ct)
	if err != nil {
		return nil, err
	}
	return &value{ct: out}, nil
}

// on2 forces a and b and applies op to their ciphertexts.
func (r *run) on2(a, b *value, op func(a, b *ckks.Ciphertext) (*ckks.Ciphertext, error)) (*value, error) {
	cb, err := r.force(b)
	if err != nil {
		return nil, err
	}
	return r.on(a, func(ca *ckks.Ciphertext) (*ckks.Ciphertext, error) { return op(ca, cb) })
}

func (r *run) level(v *value) int {
	if v.ct == nil {
		return v.level
	}
	return v.ct.Level()
}

func (r *run) scale(v *value) float64 {
	if v.ct == nil {
		return v.scale
	}
	return v.ct.Scale
}

// dropLevel is a limb-prefix view: no run-domain op writes into an operand
// (AddPlain copies first, every other op writes a fresh output), so the view
// may share the operand's limbs. A pending sum only lowers its level, since
// LinComb reads its operands' prefixes.
func (r *run) dropLevel(v *value, level int) (*value, error) {
	if v.ct == nil {
		return &value{terms: v.terms, level: level, scale: v.scale}, nil
	}
	return &value{ct: v.ct.AtLevel(level)}, nil
}

// add concatenates two pending sums, left terms first; anything else is
// ev.Add on the forced operands.
func (r *run) add(a, b *value) (*value, error) {
	if a.ct == nil && b.ct == nil && a.level == b.level && sameScale(a.scale, b.scale) {
		terms := make([]term, 0, len(a.terms)+len(b.terms))
		return &value{terms: append(append(terms, a.terms...), b.terms...), level: a.level, scale: a.scale}, nil
	}
	return r.on2(a, b, r.ev.Add)
}

func (r *run) sub(a, b *value) (*value, error)   { return r.on2(a, b, r.ev.Sub) }
func (r *run) mulCt(a, b *value) (*value, error) { return r.on2(a, b, r.ev.MulRelin) }
func (r *run) neg(v *value) (*value, error) {
	return r.on(v, func(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) { return r.ev.Neg(ct), nil })
}
func (r *run) rotate(v *value, k int) (*value, error) {
	return r.on(v, func(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) { return r.ev.Rotate(ct, k) })
}
func (r *run) conjugate(v *value) (*value, error) { return r.on(v, r.ev.Conjugate) }
func (r *run) rescale(v *value) (*value, error)   { return r.on(v, r.ev.Rescale) }

func (r *run) addPlain(v *value, name string) (*value, error) {
	return r.on(v, func(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
		pt, err := r.ex.plaintextAt(name, ct.Level())
		if err != nil {
			return nil, err
		}
		return r.ev.AddPlain(ct, pt)
	})
}

// mulPlain starts a one-term sum: the product is formed by whichever
// consumer forces it.
func (r *run) mulPlain(v *value, name string) (*value, error) {
	ct, err := r.force(v)
	if err != nil {
		return nil, err
	}
	pt, err := r.ex.plaintextAt(name, ct.Level())
	if err != nil {
		return nil, err
	}
	return &value{terms: []term{{ct, pt}}, level: ct.Level(), scale: ct.Scale * pt.Scale}, nil
}

func (r *run) refresh(v *value) (*value, error) {
	if r.hook == nil {
		return nil, ErrNoRefresh
	}
	return r.on(v, func(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) { return r.hook(r.ctx, ct) })
}

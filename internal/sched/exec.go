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
	// the remaining levels or fail with ErrNoRefresh. The ciphertext it
	// returns belongs to the run, which releases it at its last use.
	Refresh RefreshFunc
	// Trace, if set, is called after every node with its live value. A
	// traced run releases nothing, so the values it saw stay valid after
	// Run returns.
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
//
// Buffer ownership: the caller owns the input and the output, the run owns
// every intermediate and returns it to the ring's pool right after its last
// consumer (the graph's liveness table, computed once here). The input is
// never released, and the output may be the input itself or a view of it.
type Executor struct {
	Graph      *polyir.Graph
	Params     *ckks.Parameters
	Plaintexts map[string]*ckks.Plaintext // encoded at MaxLevel

	deaths [][]int // Graph.Deaths(), shared read-only by every run

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
	ex := &Executor{Graph: g, Params: params, Plaintexts: plaintexts, ptAt: map[ptKey]*ckks.Plaintext{}}
	if g != nil {
		ex.deaths = g.Deaths()
	}
	return ex
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
// Every intermediate goes back to the ring's pool at its last use, or when
// the run fails; in and its limbs are left as they came.
func (ex *Executor) Run(ctx context.Context, ev *ckks.Evaluator, in *ckks.Ciphertext, opts RunOpts) (*ckks.Ciphertext, error) {
	r := &run{ctx: ctx, ex: ex, ev: ev, hook: opts.Refresh, keep: opts.Trace != nil}
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
	out, err := walk[*value](ctx, ex.Graph, r, ex.Params.DefaultScale(), &value{ct: in}, trace, ex.deaths)
	if err == nil {
		err = traceErr
	}
	if err != nil {
		return nil, err
	}
	ct, err := r.force(out)
	if err != nil {
		r.drop(out)
		return nil, err
	}
	return ct, nil
}

// value is the run domain's value: a ciphertext, or a pending sum Σ ctₖ ⊙ ptₖ
// of plaintext products at level. A MulPlain starts a one-term sum and an Add
// of two pending sums at one level and scale concatenates their terms, so an
// inner product of a linear transform costs one ckks.LinComb pass instead of
// a MulPlain and an Add per term. Any other consumer forces the sum once and
// it becomes the ciphertext. LinComb returns the canonical residue of the
// exact sum, so the forced value is limb for limb what the MulPlain → Add
// chain returns, and its scale is the first term's, as Add's is.
//
// refs counts what keeps the value alive: the walk's node slots and operand
// views, pending sums holding it as a term, and limb-prefix views of it.
// When it reaches zero the value releases what it holds: its ciphertext if
// the run made it (owned), its terms' sources, the source of a view.
type value struct {
	ct    *ckks.Ciphertext // nil while the sum is pending
	terms []term           // a pending sum's plaintext products
	level int              // a pending sum's level; its terms may sit higher
	scale float64          // a pending sum's scale: its first term's

	refs  int
	owned bool   // ct's limbs are the run's own, not the caller's or a view's
	root  *value // a limb-prefix view's source
}

// term is one plaintext product of a pending sum: src's ciphertext times pt,
// which sits at src's level. The sum holds src until it is forced.
type term struct {
	src *value
	pt  *ckks.Plaintext
}

// run is the walk's runtime domain: a value is a ciphertext on ev or a
// pending sum of plaintext products.
type run struct {
	ctx  context.Context
	ex   *Executor
	ev   *ckks.Evaluator
	hook RefreshFunc
	keep bool // a traced run: nothing is released
}

func (r *run) hold(v *value) { v.refs++ }

// drop releases one reference to v, and what v holds with the last one.
func (r *run) drop(v *value) {
	if v.refs--; v.refs > 0 || r.keep {
		return
	}
	if v.owned {
		r.ev.Release(v.ct)
	}
	for _, t := range v.terms {
		r.drop(t.src)
	}
	v.terms = nil
	if v.root != nil {
		r.drop(v.root)
	}
}

// sum is a pending sum over terms; it holds every term's source.
func (r *run) sum(terms []term, level int, scale float64) *value {
	for _, t := range terms {
		r.hold(t.src)
	}
	return &value{terms: terms, level: level, scale: scale}
}

// force returns v's ciphertext, evaluating a pending sum on first use: one
// term is ev.MulPlain, more are one LinComb pass that reads every operand
// through its limb prefix at the sum's level. The sum then lets go of its
// terms' sources.
func (r *run) force(v *value) (*ckks.Ciphertext, error) {
	if v.ct != nil {
		return v.ct, nil
	}
	var ct *ckks.Ciphertext
	var err error
	if t := v.terms[0]; len(v.terms) == 1 && t.src.ct.Level() == v.level {
		ct, err = r.ev.MulPlain(t.src.ct, t.pt)
	} else {
		ct, err = r.linComb(v)
	}
	if err != nil {
		return nil, err
	}
	terms := v.terms
	v.ct, v.terms, v.owned = ct, nil, true
	for _, t := range terms {
		r.drop(t.src)
	}
	return ct, nil
}

func (r *run) linComb(v *value) (*ckks.Ciphertext, error) {
	lc, err := r.ev.NewLinComb(v.level)
	if err != nil {
		return nil, err
	}
	for _, t := range v.terms {
		if err := lc.AddMulPlain(t.src.ct, t.pt); err != nil {
			lc.Release()
			return nil, err
		}
	}
	return lc.Sum()
}

// on forces v and applies op to its ciphertext; every op writes a fresh
// pooled output, which the new value owns.
func (r *run) on(v *value, op func(*ckks.Ciphertext) (*ckks.Ciphertext, error)) (*value, error) {
	ct, err := r.force(v)
	if err != nil {
		return nil, err
	}
	out, err := op(ct)
	if err != nil {
		return nil, err
	}
	return &value{ct: out, owned: true}, nil
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
// (every op writes a fresh output), so the view may share the operand's
// limbs, and it holds the operand while it lives. A pending sum only lowers
// its level, since LinComb reads its operands' prefixes.
func (r *run) dropLevel(v *value, level int) (*value, error) {
	if v.ct == nil {
		return r.sum(v.terms, level, v.scale), nil
	}
	r.hold(v)
	return &value{ct: v.ct.AtLevel(level), root: v}, nil
}

// add concatenates two pending sums, left terms first; anything else is
// ev.Add on the forced operands.
func (r *run) add(a, b *value) (*value, error) {
	if a.ct == nil && b.ct == nil && a.level == b.level && sameScale(a.scale, b.scale) {
		terms := make([]term, 0, len(a.terms)+len(b.terms))
		return r.sum(append(append(terms, a.terms...), b.terms...), a.level, a.scale), nil
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
	return r.sum([]term{{v, pt}}, ct.Level(), ct.Scale*pt.Scale), nil
}

// refresh runs the hook. Its output is the run's unless the hook handed back
// its input's own limbs.
func (r *run) refresh(v *value) (*value, error) {
	if r.hook == nil {
		return nil, ErrNoRefresh
	}
	ct, err := r.force(v)
	if err != nil {
		return nil, err
	}
	out, err := r.hook(r.ctx, ct)
	if err != nil {
		return nil, err
	}
	return &value{ct: out, owned: &out.C0.Limbs[0][0] != &ct.C0.Limbs[0][0]}, nil
}

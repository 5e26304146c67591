// Package parallel provides the bounded fork-join worker pool behind the
// software limb parallelism of the numeric stack. The Cinnamon paper's
// core observation (§2-§4) is that FHE work decomposes into independent
// limbs; on CPU the same decomposition maps onto goroutines striped over
// the limb index. Every limb loop in internal/ring, internal/rns and
// internal/keyswitch funnels through For, so one process-wide knob trades
// intra-op parallelism against request-level parallelism in the serving
// runtime.
//
// Design constraints, in order:
//
//   - Bounded: across all concurrent For calls at most Workers()-1 helper
//     goroutines exist, so nested parallelism (a keyswitch chip loop whose
//     ring ops are themselves parallel) and concurrent serving requests
//     cannot oversubscribe the machine. The caller always participates,
//     which also guarantees progress when the helper budget is exhausted.
//   - Adaptive: the default worker count is runtime.GOMAXPROCS(0) read at
//     call time, so `go test -cpu 1,4` and runtime.GOMAXPROCS changes take
//     effect without reconfiguration; with one worker every call is a plain
//     serial loop with zero synchronization.
//   - Dynamic: iterations are claimed from an atomic counter, so uneven
//     per-limb cost (e.g. NTT limbs racing base-conversion limbs) balances
//     automatically.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MinCoeffs is the per-limb element count below which callers should prefer
// their serial loop: spawning a helper costs on the order of a microsecond,
// which a limb of fewer coefficients does not amortize. The ring and rns
// layers gate on this before calling For.
const MinCoeffs = 2048

// Cost classes: relative per-coefficient cost of a limb loop, in
// add-equivalents. Fan-out decisions weigh the element count by the op's
// class so that a cheap gather (automorphism) and an NTT are not gated by
// the same element threshold.
const (
	// CostLight covers add/sub/neg, copies, pure gathers and the limb ×
	// constant multiply (ntt.MulShoup), all ≤ ~1 ns/elem.
	CostLight = 1
	// CostMul covers one modular multiply per coefficient (pointwise
	// multiply, mod-down combine, rescale).
	CostMul = 4
	// CostNTT covers the log N butterfly chain of a transform.
	CostNTT = 16
)

// MinWork is the weighted per-limb work (elements × cost class) below which
// fanning a limb out to a helper goroutine costs more than it saves. With
// the classes above it admits an NTT limb at N ≥ 4096 and a pointwise
// multiply at N ≥ 8192, while keeping small ops (automorphism, add) serial —
// the small-op dispatch regression BENCH_core.json measured at workers=4.
const MinWork = 32768

// WorthFanout reports whether a limb loop of `limbs` limbs, n coefficients
// each, at the given cost class, carries enough total work (limbs×n×cost)
// and enough per-limb work (n×cost) to benefit from the pool. Per-limb N
// alone is not the criterion: a one-limb op never fans out, and a cheap
// op class needs proportionally more coefficients.
func WorthFanout(limbs, n, cost int) bool {
	return limbs > 1 && n*cost >= MinWork && limbs*n*cost >= 2*MinWork
}

// WorthFanoutWide is WorthFanout for loops whose per-task work is large
// but whose task count may be tiny (e.g. the mod-up base conversion
// accumulating into 2 extension limbs, each a CostMul×chain-limbs sweep).
// WorthFanout admits such loops on total work alone, but with fewer tasks
// than workers the fork-join barrier leaves most of the pool idle while
// still paying spawn-and-wait overhead — BENCH_core.json measured the
// result as a 0.94× *slowdown* at 4 workers. Wide gating additionally
// requires at least one task per worker so the pool is actually filled.
func WorthFanoutWide(tasks, n, cost int) bool {
	return tasks >= Workers() && WorthFanout(tasks, n, cost)
}

// Pool is a bounded fork-join executor. The zero value is ready to use and
// sizes itself to GOMAXPROCS. A Pool has no background goroutines: helpers
// are spawned per call and bounded by a shared budget, so an idle pool costs
// nothing.
type Pool struct {
	workers atomic.Int32 // configured size; 0 means GOMAXPROCS at call time
	helpers atomic.Int32 // helper goroutines currently running
}

// Default is the process-wide pool used by the package-level functions and
// by the numeric stack.
var Default = &Pool{}

// SetWorkers fixes the pool size. n <= 0 restores the GOMAXPROCS default.
func (p *Pool) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	p.workers.Store(int32(n))
}

// Workers returns the effective pool size for a call made now.
func (p *Pool) Workers() int {
	if w := p.workers.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n), distributing iterations over up to
// Workers() goroutines (including the caller). It returns when all n
// iterations have completed. fn must be safe for concurrent invocation with
// distinct i; iterations may run in any order. If any invocation panics,
// For panics after the remaining workers drain.
func (p *Pool) For(n int, fn func(i int)) {
	w := p.Workers()
	if n <= 1 || w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	want := w - 1
	if want > n-1 {
		want = n - 1
	}
	var (
		next     atomic.Int64
		panicked atomic.Value
	)
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.Store(r)
				// Poison the counter so other workers stop claiming work.
				next.Store(int64(n))
			}
		}()
		for {
			i := next.Add(1) - 1
			if i >= int64(n) {
				return
			}
			fn(int(i))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < want; g++ {
		if !p.tryAddHelper() {
			break // budget exhausted: the caller will do the rest
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.helpers.Add(-1)
			run()
		}()
	}
	run()
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
}

// tryAddHelper reserves one slot of the shared helper budget (Workers()-1
// concurrent helpers across all For calls on this pool).
func (p *Pool) tryAddHelper() bool {
	limit := int32(p.Workers() - 1)
	for {
		cur := p.helpers.Load()
		if cur >= limit {
			return false
		}
		if p.helpers.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// SetWorkers configures the default pool; n <= 0 restores the GOMAXPROCS
// default. Tests use it to pin the fan-out.
func SetWorkers(n int) { Default.SetWorkers(n) }

// Workers returns the default pool's effective size.
func Workers() int { return Default.Workers() }

// For runs fn over [0, n) on the default pool.
func For(n int, fn func(i int)) { Default.For(n, fn) }

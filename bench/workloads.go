package main

import (
	"fmt"
	"math/rand"

	"cinnamon/internal/dsl"
	"cinnamon/internal/tensor"
	"cinnamon/internal/workloads"
)

// share is one entry of an exact-proportion deck: n cards of index i.
type share struct{ i, n int }

// deck deals indices in exact proportions, in an order that looks drawn but
// is the same in every run: the cards are shuffled once, from a constant, and
// the run's seed only picks where dealing starts. A fresh seeded
// shuffle per run would give the same long-run mix, but which requests of the
// two clients overlap (two xform64s, or two tenants evicting each other) would
// then differ from seed to seed, and with a few hundred requests in a window
// that chance lands on every gated metric. FHE execution is data-oblivious,
// so the seed's keys and inputs do not move timings; the order would.
type deck struct {
	cards []int
	pos   int
}

func newDeck(shares []share, seed int64) *deck {
	d := &deck{}
	for _, s := range shares {
		for k := 0; k < s.n; k++ {
			d.cards = append(d.cards, s.i)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(d.cards), func(i, j int) {
		d.cards[i], d.cards[j] = d.cards[j], d.cards[i]
	})
	d.pos = int(uint64(seed) % uint64(len(d.cards)))
	return d
}

func (d *deck) next() int {
	c := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return c
}

// workload is one traffic mix and the stack it runs against.
type workload struct {
	name, why string
	cfg       stackConfig
	// One-shot workloads draw a program and a tenant per request; programs
	// indexes cfg.inputs.
	programs, tenants []share
	// sessions, when set, replaces the one-shot loop: each client loops
	// create-session → sessionSteps × :step of this program → close.
	sessions string
	// check fails the run when the workload stopped stressing what it is
	// here to stress.
	check func(w *window) []string
}

const sessionSteps = 8

// oneshotMix is square 0.15 / rotsum 0.15 / logreg16 0.50 / xform64 0.20. The
// programs cost about 15/30/45/125 ms at logN=12, so the median request sits
// inside logreg16's latency mode and the 95th percentile inside xform64's; a
// mix whose cumulative share crosses 0.5 between two programs would make p50
// jump between their modes from run to run.
var oneshotMix = []share{{0, 3}, {1, 3}, {2, 10}, {3, 4}}

var oneshotPrograms = []string{"square", "rotsum", "logreg16", "xform64"}

// zipfTenants is Zipf(s=2) over 8 tenants, as a 100-card deck. With two
// bundles resident that is about 3 hits in 4: the median request is a hit
// and the 95th percentile a cold miss. At s=1.2 hits and misses split evenly
// and the median flips between the two modes from run to run.
var zipfTenants = []share{{0, 65}, {1, 16}, {2, 7}, {3, 4}, {4, 3}, {5, 2}, {6, 2}, {7, 1}}

func catalog(names ...string) []workloads.ServeWorkload {
	out := make([]workloads.ServeWorkload, len(names))
	for i, n := range names {
		w, ok := workloads.ServeWorkloadByName(n)
		if !ok {
			panic(fmt.Sprintf("bench: no catalog program %q", n))
		}
		out[i] = w
	}
	return out
}

func workloadList() []workload {
	oneshot := stackConfig{
		logN: 12, levels: 4,
		programs: catalog(oneshotPrograms...),
		inputs:   oneshotPrograms,
		poolSize: 4,
		tenants:  1,
	}
	cluster := oneshot
	cluster.workers = 2
	return []workload{
		{
			name:     "oneshot_local",
			why:      "program execution on the local emulator path does nearly all the work: kernel and executor changes show here",
			cfg:      oneshot,
			programs: oneshotMix,
			tenants:  []share{{0, 1}},
			check: func(w *window) []string {
				var bad []string
				if n := w.after.Bootstraps - w.before.Bootstraps; n != 0 {
					bad = append(bad, fmt.Sprintf("%d bootstraps on a workload without bootstrapping", n))
				}
				if n := w.after.KeyCache.Misses - w.before.KeyCache.Misses; n != 0 {
					bad = append(bad, fmt.Sprintf("%d key-cache misses with the key budget off", n))
				}
				return bad
			},
		},
		{
			name:     "oneshot_cluster",
			why:      "same requests as oneshot_local through 2 workers over loopback TCP: cluster collectives and the other executor dominate",
			cfg:      cluster,
			programs: oneshotMix,
			tenants:  []share{{0, 1}},
			check: func(w *window) []string {
				var bad []string
				if w.after.Cluster == nil || w.before.Cluster == nil {
					return []string{"no cluster counters on the cluster workload"}
				}
				if n := w.after.Cluster.LocalFallbacks - w.before.Cluster.LocalFallbacks; n != 0 {
					bad = append(bad, fmt.Sprintf("%d collectives fell back to local execution", n))
				}
				if n := w.after.EmulatorFallbacks - w.before.EmulatorFallbacks; n != 0 {
					bad = append(bad, fmt.Sprintf("%d chunks fell back to the emulator", n))
				}
				if n := w.after.Cluster.KeyPushes - w.before.Cluster.KeyPushes; n != 0 {
					bad = append(bad, fmt.Sprintf("%d keys pushed to workers inside the timed window (warm-up must push them all)", n))
				}
				if n := w.after.Cluster.Broadcasts + w.after.Cluster.Aggregations - w.before.Cluster.Broadcasts - w.before.Cluster.Aggregations; n == 0 {
					bad = append(bad, "no cluster collectives ran")
				}
				return bad
			},
		},
		{
			name: "manytenant_churn",
			why:  "8 tenants under a 2.5-bundle key budget with cheap programs: key residency (spill read, decode, eviction, prefetch) is most of the latency",
			cfg: stackConfig{
				logN: 10, levels: 4,
				programs: catalog("square", "quartic", "rotsum", "wavg4", "logreg16", "xform64"),
				inputs:   []string{"square", "rotsum"},
				poolSize: 2,
				tenants:  8,
				budget:   2.5,
			},
			programs: []share{{0, 1}, {1, 1}},
			tenants:  zipfTenants,
			check: func(w *window) []string {
				var bad []string
				b, a := w.before.KeyCache, w.after.KeyCache
				hits, misses := a.Hits-b.Hits, a.Misses-b.Misses
				if hs := ratio(float64(hits), float64(hits+misses)); hs >= 0.9 {
					bad = append(bad, fmt.Sprintf("key-cache hit share %.3f ≥ 0.9: tenants no longer churn", hs))
				}
				if a.ColdMissStalls-b.ColdMissStalls < 1 {
					bad = append(bad, "no cold-miss stall in the timed window")
				}
				if a.ResidentBytes > a.BudgetBytes {
					bad = append(bad, fmt.Sprintf("resident key bytes %d over the budget %d", a.ResidentBytes, a.BudgetBytes))
				}
				return bad
			},
		},
		{
			name: "deep_sessions",
			why:  "durable sessions stepping a program that needs one bootstrap per step: scheduler executor, shared bootstrap tick and checkpoint fsync do the work",
			cfg: stackConfig{
				logN: 7, levels: 16, bootstrap: true,
				programs: append(catalog("square", "rotsum", "logreg16"), helrStep()),
				inputs:   []string{"square", "rotsum", "logreg16", "helr-step"},
				poolSize: 4,
				// A session's seed is encrypted at the program's depth, as a
				// client that knows the depth would to save bandwidth: the
				// seeded step then ends at level 0 and needs no refresh, and
				// every resumed step needs exactly one.
				inputLevel: map[string]int{"helr-step": helrDepth},
				tenants:    nClients,
				sessionLog: true,
			},
			sessions: "helr-step",
			check: func(w *window) []string {
				var bad []string
				steps := w.after.SessionSteps - w.before.SessionSteps
				resumed := steps - (w.after.SessionsCreated - w.before.SessionsCreated)
				if refreshes := w.after.Bootstraps - w.before.Bootstraps; resumed < 1 || refreshes < resumed {
					bad = append(bad, fmt.Sprintf("%d refreshes for %d resumed steps: want at least one each", refreshes, resumed))
				}
				if w.logAfter <= w.logBefore {
					bad = append(bad, fmt.Sprintf("session log did not grow (%d → %d bytes)", w.logBefore, w.logAfter))
				}
				return bad
			},
		},
	}
}

// HELR coefficients, as internal/workloads/deep.go has them.
const (
	helrDepth = 4
	helrMix   = 0.5
	helrC1    = 0.197
	helrC3    = 0.004
	helrB     = 0.5
)

// helrStep is one HELR logistic iteration x ← σ̃(0.5·(x + rot(x,1))) — the
// loop body of the catalog's logreg16-deep, which runs five of them per
// call. A session step is then one training iteration: it consumes 4 levels,
// so on a 16-level chain whose bootstrap exits at level 4 every resumed step
// needs exactly one refresh. logreg16-deep itself costs 1.2 s per step at
// logN=8 on the reference host (five refreshes), which leaves ~40 latency
// samples in a window the run-time cap allows. One iteration per step costs
// ~0.22 s there — 180–260 samples depending on the host's phase, around the
// 200 the 95th percentile needs — and ~0.12 s at logN=7, which leaves ~440.
func helrStep() workloads.ServeWorkload {
	broadcast := func(w float64) func(int) []complex128 {
		return func(slots int) []complex128 {
			v := make([]complex128, slots)
			for i := range v {
				v[i] = complex(w, 0)
			}
			return v
		}
	}
	return workloads.ServeWorkload{
		Name:        "helr-step",
		Description: "one HELR logistic iteration (depth 4), for session stepping",
		NeedsRelin:  true,
		Rotations:   []int{1},
		Plaintexts: []tensor.PlaintextSpec{
			{Name: "helr.mix", Values: broadcast(helrMix)},
			{Name: "helr.c1", Values: broadcast(helrC1)},
			{Name: "helr.c3", Values: broadcast(helrC3)},
			{Name: "helr.b", Values: broadcast(helrB)},
		},
		MinLevels: helrDepth,
		VerifyTol: 5e-2,
		Build: func(s *dsl.Stream, x *dsl.Ciphertext) *dsl.Ciphertext {
			t := x.Add(x.Rotate(1)).MulPlain("helr.mix").Rescale()
			t2 := t.Mul(t).Rescale()
			t3 := t2.Mul(t).Rescale()
			a := t.MulPlain("helr.c1").Rescale()
			b := t3.MulPlain("helr.c3").Rescale()
			return a.Sub(b).AddPlain("helr.b")
		},
		MakeInput: func(rng *rand.Rand, slots int) []complex128 {
			// Real inputs in [0,1]: σ̃ maps [0,1] into itself, so iterating
			// stays inside the bootstrap's headroom.
			v := make([]complex128, slots)
			for i := range v {
				v[i] = complex(rng.Float64(), 0)
			}
			return v
		},
		EvalPlain: func(in []complex128) []complex128 {
			n := len(in)
			out := make([]complex128, n)
			for j := range in {
				t := helrMix * (in[j] + in[(j+1)%n])
				out[j] = complex(helrB, 0) + complex(helrC1, 0)*t - complex(helrC3, 0)*t*t*t
			}
			return out
		},
	}
}

// Package keyswitch implements the Cinnamon paper's parallel keyswitching
// algorithms (§4.3.1, Fig. 8) over a limb partition across n chips:
//
//   - Sequential: the standard hybrid keyswitch on a single chip.
//   - CiFHER: the prior-art baseline that broadcasts limbs at the mod-up
//     AND both mod-down base conversions (3 broadcasts per keyswitch).
//   - Input Broadcast: one broadcast at mod-up; extension limbs are
//     duplicated on every chip so the mod-down is communication-free.
//   - Output Aggregation: digits are the per-chip limb partitions, so no
//     broadcast is needed; two aggregate-and-scatter operations at the end.
//
// Every algorithm is implemented functionally — each virtual chip computes
// only the limbs the partition assigns it, and every limb that crosses a
// chip boundary is metered in CommStats — so the equivalence tests can
// check the algorithms against the sequential reference bit-for-bit (input
// broadcast) or decryption-for-decryption (output aggregation, whose
// mod-down/aggregate reorder is equivalent only up to rounding noise).
// Sequential and input broadcast run one kernel, ckks.KSPlan: the
// sequential keyswitch is its one-chip case, and an input-broadcast chip
// runs the plan compiled for the limbs it owns.
package keyswitch

import (
	"fmt"
	"sync"

	"cinnamon/internal/ckks"
	"cinnamon/internal/ring"
	"cinnamon/internal/rns"
)

// Algorithm selects a parallel keyswitching strategy.
type Algorithm int

const (
	// Sequential runs the standard single-chip hybrid keyswitch.
	Sequential Algorithm = iota
	// CiFHER broadcasts at mod-up and both mod-down conversions.
	CiFHER
	// InputBroadcast broadcasts input limbs once and duplicates extension
	// limbs (paper Fig. 8b).
	InputBroadcast
	// OutputAggregation uses the chip partition as the digit partition and
	// aggregates at the end (paper Fig. 8c).
	OutputAggregation
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Sequential:
		return "Sequential"
	case CiFHER:
		return "CiFHER"
	case InputBroadcast:
		return "InputBroadcast"
	case OutputAggregation:
		return "OutputAggregation"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// CommStats meters inter-chip communication in units of limbs (one limb =
// N coefficients). LimbsMoved counts every limb that leaves a chip;
// Broadcasts and Aggregations count collective operations (the quantities
// the paper's algorithmic analysis reasons about, §7.4).
type CommStats struct {
	Broadcasts   int
	Aggregations int
	LimbsMoved   int
}

// Add accumulates other into s.
func (s *CommStats) Add(other CommStats) {
	s.Broadcasts += other.Broadcasts
	s.Aggregations += other.Aggregations
	s.LimbsMoved += other.LimbsMoved
}

// Bytes returns the traffic volume for ring dimension n at the given
// per-coefficient width in bits (the paper's datapath is 28-bit).
func (s CommStats) Bytes(n, bits int) int64 {
	return int64(s.LimbsMoved) * int64(n) * int64(bits) / 8
}

// AnalyticStats is the paper's closed-form communication bill (§7.4) for a
// keyswitch of a level-l polynomial over nChips chips with pLen extension
// limbs. The engine's returned CommStats are measured by the transport
// layer (in-process or cluster); TestCommStatsMeasuredMatchesAnalytic
// asserts measurement and analysis agree whenever every chip owns at least
// one limb (nChips ≤ l+1).
func AnalyticStats(alg Algorithm, l, nChips, pLen int) CommStats {
	n := nChips
	switch alg {
	case CiFHER:
		// Mod-up: all (l+1) input limbs reach every other chip; mod-down:
		// the extension limbs of both accumulated polynomials do too.
		return CommStats{Broadcasts: 3, LimbsMoved: (n - 1) * ((l + 1) + 2*pLen)}
	case InputBroadcast:
		return CommStats{Broadcasts: 1, LimbsMoved: (l + 1) * (n - 1)}
	case OutputAggregation:
		return CommStats{Aggregations: 2, LimbsMoved: 2 * (l + 1) * (n - 1)}
	default:
		return CommStats{}
	}
}

// Engine runs keyswitching over a virtual multi-chip limb partition.
type Engine struct {
	Params *ckks.Parameters
	NChips int

	plans sync.Map // [2]int{chip, level} → *ckks.KSPlan (chipPlan)
}

// NewEngine validates and builds an engine.
func NewEngine(params *ckks.Parameters, nChips int) (*Engine, error) {
	if nChips < 1 {
		return nil, fmt.Errorf("keyswitch: need at least one chip")
	}
	return &Engine{Params: params, NChips: nChips}, nil
}

// The partition rule, shared by the in-process engine, the cluster
// coordinator and its workers: one definition of who owns which limb and
// which limbs travel together.

// ChipLimbs returns the chain indices chip owns at level l under the
// modular partition: the limbs an input-broadcast chip keeps.
func ChipLimbs(chip, l, nChips int) []int {
	var out []int
	for j := chip; j <= l; j += nChips {
		out = append(out, j)
	}
	return out
}

// DigitRanges returns the chain-index range [lo,hi) of every hybrid digit
// of evk that is non-empty at level l, in digit order: the digits one
// input broadcast streams.
func DigitRanges(params *ckks.Parameters, evk *ckks.EvalKey, l int) [][2]int {
	var out [][2]int
	for d := 0; d < evk.Digits(); d++ {
		lo, hi, ok := params.DigitRange(d, l)
		if !ok {
			break
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// OADigitSet returns the chain indices of chip's digit set restricted to
// level l — the only limbs an output-aggregation chip receives —
// validating that the key carries a modular-digit partition over nChips.
func OADigitSet(evk *ckks.EvalKey, nChips, chip, l int) ([]int, error) {
	if evk.DigitSets == nil {
		return nil, fmt.Errorf("keyswitch: output aggregation requires a modular-digit key (GenEvalKeyDigits)")
	}
	if len(evk.DigitSets) != nChips {
		return nil, fmt.Errorf("keyswitch: key has %d digits, engine has %d chips", len(evk.DigitSets), nChips)
	}
	if chip < 0 || chip >= nChips {
		return nil, fmt.Errorf("keyswitch: chip %d out of range [0,%d)", chip, nChips)
	}
	var out []int
	for _, j := range evk.DigitSets[chip] {
		if j <= l {
			out = append(out, j)
		}
	}
	return out, nil
}

// KeySwitch runs the selected algorithm on polynomial c (NTT domain,
// level-l chain basis) with the evaluation key, returning the two output
// polynomials (NTT domain) and the communication bill.
func (e *Engine) KeySwitch(c *ring.Poly, evk *ckks.EvalKey, alg Algorithm) (f0, f1 *ring.Poly, stats CommStats, err error) {
	switch alg {
	case Sequential:
		f0, f1, err = e.sequential(c, evk)
	case CiFHER:
		f0, f1, stats, err = e.cifher(c, evk)
	case InputBroadcast:
		f0, f1, stats, err = e.inputBroadcast(c, evk)
	case OutputAggregation:
		f0, f1, stats, err = e.outputAggregation(c, evk)
	default:
		err = fmt.Errorf("keyswitch: unknown algorithm %v", alg)
	}
	return
}

// sequential delegates to the reference evaluator implementation.
func (e *Engine) sequential(c *ring.Poly, evk *ckks.EvalKey) (*ring.Poly, *ring.Poly, error) {
	ev := ckks.NewEvaluator(e.Params, nil, nil)
	return ev.KeySwitch(c, evk)
}

// unionBasis returns Q_l ∪ P for the level of c.
func (e *Engine) unionBasis(c *ring.Poly) (rns.Basis, error) {
	return c.Basis.Union(e.Params.PBasis)
}

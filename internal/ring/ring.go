// Package ring implements arithmetic over power-of-two negacyclic
// polynomial rings R_Q = Z_Q[X]/(X^N+1) in RNS (limb) representation.
// It is the substrate the CKKS layer (paper §2) is built on: limb-wise
// add/mul/NTT/automorphism plus the cross-limb mod-up, mod-down and rescale
// operations that keyswitching requires.
//
// Every limb loop is a plain serial loop: the paper's limb-level
// parallelism is internal/cluster's partition of limbs across workers, and
// concurrency inside one process comes from concurrent requests. The
// pointwise-multiply hot paths use per-modulus Barrett constants cached on
// the Ring instead of a hardware division per coefficient. All Ring
// operations are safe for concurrent use from multiple goroutines (on
// distinct output polynomials).
package ring

import (
	"fmt"
	"sync"

	"cinnamon/internal/ntt"
	"cinnamon/internal/rns"
)

// Ring is a fixed ring dimension together with NTT tables for a universe of
// moduli (the ciphertext chain plus any extension/special moduli). Polys
// over any sub-basis of the universe share the one Ring context.
type Ring struct {
	N        int
	Universe rns.Basis
	Tables   *ntt.TableSet

	modIndex   map[uint64]int               // modulus -> universe position
	barrett    map[uint64]rns.BarrettParams // per-modulus mulmod constants
	univTables []*ntt.Table                 // universe-position-indexed NTT tables (nil entries on lazy rings)
	univPlan   *ntt.BatchPlan               // batch plan over the universe tables (nil on lazy rings)
	rescaleTab [][]shoupScalar              // [l][j]: q_l^{-1} mod q_j over universe positions, j < l

	autoCache sync.Map  // galois element -> []int NTT-domain gather index
	limbPool  sync.Pool // *[]uint64 scratch limbs of capacity N
	boxPool   sync.Pool // empty *[]uint64 headers, recycled so Put never allocates
	polyPool  sync.Pool // *Poly headers recycled by GetPoly/PutPoly
	accPool   sync.Pool // *LazyAcc structs recycled by GetLazyAcc/Release
}

// NewRing builds a ring of dimension n over the given universe of moduli.
// n must be a power of two and every modulus must satisfy q ≡ 1 (mod 2n).
func NewRing(n int, universe rns.Basis) (*Ring, error) {
	ts, err := ntt.NewTableSet(n, universe.Moduli)
	if err != nil {
		return nil, err
	}
	return newRing(n, universe, ts), nil
}

// NewRingLazy builds a ring without NTT tables. Use it for compile-only
// and timing-simulation contexts at large N (the compiler needs only the
// moduli and Galois arithmetic); NTT/INTT on such a ring fails.
func NewRingLazy(n int, universe rns.Basis) (*Ring, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: dimension %d is not a power of two", n)
	}
	ts, err := ntt.NewTableSet(n, nil)
	if err != nil {
		return nil, err
	}
	return newRing(n, universe, ts), nil
}

func newRing(n int, universe rns.Basis, ts *ntt.TableSet) *Ring {
	r := &Ring{
		N:        n,
		Universe: universe,
		Tables:   ts,
		modIndex: make(map[uint64]int, universe.Len()),
		barrett:  make(map[uint64]rns.BarrettParams, universe.Len()),
	}
	r.univTables = make([]*ntt.Table, universe.Len())
	havePlan := universe.Len() > 0
	for i, q := range universe.Moduli {
		r.modIndex[q] = i
		r.barrett[q] = rns.NewBarrettParams(q)
		r.univTables[i] = ts.Table(q) // nil on lazy rings
		havePlan = havePlan && r.univTables[i] != nil
	}
	if havePlan {
		r.univPlan, _ = ntt.NewBatchPlan(r.univTables)
	}
	// Rescale constants q_l^{-1} mod q_j for every (dropped, kept) universe
	// pair — O(L²) scalars computed once here so the rescale limb loop does
	// no sync.Map lookups (whose interface-boxed keys allocate per probe).
	r.rescaleTab = make([][]shoupScalar, universe.Len())
	for l := 1; l < universe.Len(); l++ {
		ql := universe.Moduli[l]
		row := make([]shoupScalar, l)
		for j := 0; j < l; j++ {
			q := universe.Moduli[j]
			w := rns.InvMod(ql%q, q)
			row[j] = shoupScalar{w: w, ws: rns.ShoupPrecomp(w, q)}
		}
		r.rescaleTab[l] = row
	}
	return r
}

// alignedPrefix reports whether b's limb j holds universe modulus j for all
// limbs — true for every chain prefix and the full Q∪P basis, the shapes
// all steady-state polys have. Aligned bases ride the cached universe
// tables, the batch plan and the precomputed rescale rows.
func (r *Ring) alignedPrefix(b rns.Basis) bool {
	l := b.Len()
	if l > len(r.univTables) {
		return false
	}
	for j := 0; j < l; j++ {
		if b.Moduli[j] != r.Universe.Moduli[j] {
			return false
		}
	}
	return true
}

// Plan returns the ring's batch NTT plan over the universe moduli (nil on
// lazy rings). Any universe-aligned prefix of limbs can be transformed
// through it.
func (r *Ring) Plan() *ntt.BatchPlan { return r.univPlan }

// PlanForBasis builds (or reuses) a batch NTT plan for an arbitrary basis
// whose moduli all have tables in this ring. Intended for compile-time plan
// construction (serve.Registry, keyswitch plans); the returned plan is
// immutable and shared freely.
func (r *Ring) PlanForBasis(b rns.Basis) (*ntt.BatchPlan, error) {
	if r.univPlan != nil && b.Len() == r.Universe.Len() && r.alignedPrefix(b) {
		return r.univPlan, nil
	}
	tables := make([]*ntt.Table, b.Len())
	for j, q := range b.Moduli {
		if tables[j] = r.TableOf(q); tables[j] == nil {
			return nil, fmt.Errorf("ring: no NTT table for modulus %d", q)
		}
	}
	return ntt.NewBatchPlan(tables)
}

// TableOf returns the NTT table for modulus q — a slice index when q is a
// universe modulus (the per-limb hot path), falling back to the table-set
// map for foreign moduli. Returns nil when no table exists.
func (r *Ring) TableOf(q uint64) *ntt.Table {
	if i, ok := r.modIndex[q]; ok {
		return r.univTables[i]
	}
	return r.Tables.Table(q)
}

// UniverseIndex returns the position of modulus q in the ring's universe.
func (r *Ring) UniverseIndex(q uint64) (int, bool) {
	i, ok := r.modIndex[q]
	return i, ok
}

// Barrett returns the cached Barrett constants for a universe modulus,
// computing them on the fly for a foreign modulus.
func (r *Ring) Barrett(q uint64) rns.BarrettParams {
	if bp, ok := r.barrett[q]; ok {
		return bp
	}
	return rns.NewBarrettParams(q)
}

// Poly is a polynomial in limb representation: Limbs[j] holds the residues
// mod Basis.Moduli[j]. IsNTT records the current domain; entries are in the
// evaluation (NTT) domain when true, coefficient domain when false.
type Poly struct {
	Basis rns.Basis
	Limbs [][]uint64
	IsNTT bool
}

// NewPoly allocates the zero polynomial over basis b.
func (r *Ring) NewPoly(b rns.Basis) *Poly {
	limbs := make([][]uint64, b.Len())
	for i := range limbs {
		limbs[i] = make([]uint64, r.N)
	}
	return &Poly{Basis: b, Limbs: limbs}
}

// Copy returns a deep copy of p.
func (p *Poly) Copy() *Poly {
	limbs := make([][]uint64, len(p.Limbs))
	for i, l := range p.Limbs {
		limbs[i] = append([]uint64(nil), l...)
	}
	return &Poly{Basis: p.Basis, Limbs: limbs, IsNTT: p.IsNTT}
}

// Level returns the number of limbs minus one.
func (p *Poly) Level() int { return len(p.Limbs) - 1 }

func (r *Ring) checkPair(a, b *Poly) error {
	if !a.Basis.Equal(b.Basis) {
		return fmt.Errorf("ring: basis mismatch %v vs %v", a.Basis, b.Basis)
	}
	if a.IsNTT != b.IsNTT {
		return fmt.Errorf("ring: domain mismatch (NTT %v vs %v)", a.IsNTT, b.IsNTT)
	}
	return nil
}

// Add sets out = a + b limb-wise. a, b must share basis and domain.
func (r *Ring) Add(a, b, out *Poly) error {
	if err := r.checkPair(a, b); err != nil {
		return err
	}
	out.Basis, out.IsNTT = a.Basis, a.IsNTT
	r.ensureShape(out, a.Basis.Len())
	for j, q := range a.Basis.Moduli {
		ntt.AddMod(out.Limbs[j], a.Limbs[j], b.Limbs[j], q)
	}
	return nil
}

// Sub sets out = a - b limb-wise.
func (r *Ring) Sub(a, b, out *Poly) error {
	if err := r.checkPair(a, b); err != nil {
		return err
	}
	out.Basis, out.IsNTT = a.Basis, a.IsNTT
	r.ensureShape(out, a.Basis.Len())
	for j, q := range a.Basis.Moduli {
		ntt.SubMod(out.Limbs[j], a.Limbs[j], b.Limbs[j], q)
	}
	return nil
}

// Neg sets out = -a limb-wise.
func (r *Ring) Neg(a, out *Poly) {
	out.Basis, out.IsNTT = a.Basis, a.IsNTT
	r.ensureShape(out, a.Basis.Len())
	for j, q := range a.Basis.Moduli {
		aj, oj := a.Limbs[j], out.Limbs[j]
		for i := range aj {
			oj[i] = rns.NegMod(aj[i], q)
		}
	}
}

// MulCoeffs sets out = a ⊙ b, the pointwise product. Both operands must be
// in the NTT domain (pointwise product in evaluation domain = ring product).
// The per-limb kernel is Barrett multiplication with constants cached on
// the Ring — no hardware division in the loop (ntt.MulBarrett).
func (r *Ring) MulCoeffs(a, b, out *Poly) error {
	if err := r.checkPair(a, b); err != nil {
		return err
	}
	if !a.IsNTT {
		return fmt.Errorf("ring: MulCoeffs requires NTT domain")
	}
	out.Basis, out.IsNTT = a.Basis, true
	r.ensureShape(out, a.Basis.Len())
	for j, q := range a.Basis.Moduli {
		ntt.MulBarrett(out.Limbs[j], a.Limbs[j], b.Limbs[j], r.Barrett(q))
	}
	return nil
}

// MulScalar sets out = s·a where s is a plain unsigned scalar (reduced per
// modulus). Works in either domain.
func (r *Ring) MulScalar(a *Poly, s uint64, out *Poly) {
	out.Basis, out.IsNTT = a.Basis, a.IsNTT
	r.ensureShape(out, a.Basis.Len())
	for j, q := range a.Basis.Moduli {
		w := s % q
		ntt.MulShoup(out.Limbs[j], a.Limbs[j], w, rns.ShoupPrecomp(w, q), q)
	}
}

// MulScalarBigRNS multiplies by a scalar given as per-modulus residues
// (sRes[j] < Moduli[j]); used for multiplying by digit recombination factors
// or modulus products that exceed 64 bits.
func (r *Ring) MulScalarBigRNS(a *Poly, sRes []uint64, out *Poly) error {
	if len(sRes) != a.Basis.Len() {
		return fmt.Errorf("ring: scalar has %d residues for %d limbs", len(sRes), a.Basis.Len())
	}
	out.Basis, out.IsNTT = a.Basis, a.IsNTT
	r.ensureShape(out, a.Basis.Len())
	for j, q := range a.Basis.Moduli {
		w := sRes[j] % q
		ntt.MulShoup(out.Limbs[j], a.Limbs[j], w, rns.ShoupPrecomp(w, q), q)
	}
	return nil
}

// transformLimbs runs the forward (or inverse) transform on every limb of
// a basis that is not a universe prefix (chip bases, the P basis alone,
// foreign moduli), resolving each limb's table as it goes. A modulus with
// no table fails before any limb changes.
func (r *Ring) transformLimbs(p *Poly, inverse bool) error {
	for _, q := range p.Basis.Moduli {
		if r.TableOf(q) == nil {
			return fmt.Errorf("ring: no NTT table for modulus %d", q)
		}
	}
	for j, q := range p.Basis.Moduli {
		if inverse {
			r.TableOf(q).Inverse(p.Limbs[j])
		} else {
			r.TableOf(q).Forward(p.Limbs[j])
		}
	}
	return nil
}

// NTT transforms p to the evaluation domain in place (no-op if already
// there).
func (r *Ring) NTT(p *Poly) error {
	if p.IsNTT {
		return nil
	}
	if r.univPlan != nil && r.alignedPrefix(p.Basis) {
		r.univPlan.Forward(p.Limbs)
		p.IsNTT = true
		return nil
	}
	if err := r.transformLimbs(p, false); err != nil {
		return err
	}
	p.IsNTT = true
	return nil
}

// INTT transforms p to the coefficient domain in place (no-op if already
// there).
func (r *Ring) INTT(p *Poly) error {
	if !p.IsNTT {
		return nil
	}
	if r.univPlan != nil && r.alignedPrefix(p.Basis) {
		r.univPlan.Inverse(p.Limbs)
		p.IsNTT = false
		return nil
	}
	if err := r.transformLimbs(p, true); err != nil {
		return err
	}
	p.IsNTT = false
	return nil
}

// ensureShape gives p exactly `limbs` limbs of length N, reusing both the
// limb-slice header array and any retained limb capacity (from a previous
// larger shape or the pool) instead of reallocating.
// Contents of reused limbs are unspecified; every caller overwrites all
// coefficients.
func (r *Ring) ensureShape(p *Poly, limbs int) {
	if cap(p.Limbs) >= limbs {
		p.Limbs = p.Limbs[:limbs]
	} else {
		nl := make([][]uint64, limbs)
		copy(nl, p.Limbs[:cap(p.Limbs)])
		p.Limbs = nl
	}
	for i := range p.Limbs {
		if cap(p.Limbs[i]) >= r.N {
			p.Limbs[i] = p.Limbs[i][:r.N]
		} else {
			p.Limbs[i] = make([]uint64, r.N)
		}
	}
}

// Restrict returns a shallow view of p containing only the limbs whose
// moduli appear in target, in target order. The limb slices are shared with
// p; callers must not mutate them through the view unless aliasing is
// intended. Every target modulus must be present in p's basis.
//
// The lookup is O(len(target)) when p's basis is universe-aligned (limb j
// holds universe modulus j — true for every chain prefix and the full Q∪P
// basis); otherwise it falls back to a one-shot index map, O(len(p)+len(target)).
func (r *Ring) Restrict(p *Poly, target rns.Basis) (*Poly, error) {
	limbs := make([][]uint64, target.Len())
	var fallback map[uint64]int
	for i, q := range target.Moduli {
		j, ok := r.modIndex[q]
		if !ok || j >= len(p.Limbs) || p.Basis.Moduli[j] != q {
			// Not universe-aligned: build the per-poly index once.
			if fallback == nil {
				fallback = make(map[uint64]int, len(p.Basis.Moduli))
				for jj, m := range p.Basis.Moduli {
					fallback[m] = jj
				}
			}
			if j, ok = fallback[q]; !ok {
				return nil, fmt.Errorf("ring: modulus %d missing from source basis", q)
			}
		}
		limbs[i] = p.Limbs[j]
	}
	return &Poly{Basis: target, Limbs: limbs, IsNTT: p.IsNTT}, nil
}

// Restrict is the ring-free variant of Ring.Restrict. It builds a one-shot
// modulus→index map instead of the old O(L²) nested scan; prefer the Ring
// method where a ring context is at hand (it reuses the per-Ring map).
func Restrict(p *Poly, target rns.Basis) (*Poly, error) {
	idx := make(map[uint64]int, len(p.Basis.Moduli))
	for j, m := range p.Basis.Moduli {
		idx[m] = j
	}
	limbs := make([][]uint64, target.Len())
	for i, q := range target.Moduli {
		j, ok := idx[q]
		if !ok {
			return nil, fmt.Errorf("ring: modulus %d missing from source basis", q)
		}
		limbs[i] = p.Limbs[j]
	}
	return &Poly{Basis: target, Limbs: limbs, IsNTT: p.IsNTT}, nil
}

// View returns a shallow view of p restricted to the given limb indices,
// in the given order. The limb slices are shared with p (zero-copy); the
// cluster wire codec frames selected limbs straight out of the backing
// arrays through such views. Every index must be in range.
func (p *Poly) View(indices []int) (*Poly, error) {
	limbs := make([][]uint64, len(indices))
	mods := make([]uint64, len(indices))
	for k, j := range indices {
		if j < 0 || j >= len(p.Limbs) {
			return nil, fmt.Errorf("ring: limb view index %d out of range [0,%d)", j, len(p.Limbs))
		}
		limbs[k] = p.Limbs[j]
		mods[k] = p.Basis.Moduli[j]
	}
	return &Poly{Basis: rns.Basis{Moduli: mods}, Limbs: limbs, IsNTT: p.IsNTT}, nil
}

// Equal reports deep equality of basis, domain and limb contents.
func (p *Poly) Equal(o *Poly) bool {
	if !p.Basis.Equal(o.Basis) || p.IsNTT != o.IsNTT || len(p.Limbs) != len(o.Limbs) {
		return false
	}
	for j := range p.Limbs {
		if len(p.Limbs[j]) != len(o.Limbs[j]) {
			return false
		}
		for i := range p.Limbs[j] {
			if p.Limbs[j][i] != o.Limbs[j][i] {
				return false
			}
		}
	}
	return true
}

package ring

import (
	"fmt"

	"cinnamon/internal/rns"
)

// Poly buffer pooling. Steady-state FHE serving allocates the same limb
// slices over and over — keyswitch temporaries alone churn through
// ~4(L+P) limbs of N words per operation. GetPoly/PutPoly recycle limb
// storage through a per-Ring sync.Pool so the evaluator, the keyswitch
// engines and the serving machines stop pressuring the garbage collector
// once warm. Returning a polynomial is always optional: anything not
// PutPoly'd is simply collected.

// GetPoly returns a zero polynomial over basis b, drawing limb storage from
// the ring's buffer pool when available. It is the pooled equivalent of
// NewPoly: contents are zeroed, IsNTT is false. Safe for concurrent use.
func (r *Ring) GetPoly(b rns.Basis) *Poly {
	p := r.getPolyHeader()
	p.Basis = b
	p.IsNTT = false
	n := b.Len()
	if cap(p.Limbs) >= n {
		p.Limbs = p.Limbs[:n]
	} else {
		p.Limbs = make([][]uint64, n)
	}
	for i := range p.Limbs {
		p.Limbs[i] = r.getLimb()
	}
	return p
}

// PutPoly returns p's limb storage to the pool. The caller must not use p
// (or any view sharing its limbs, such as a Restrict of it) afterwards.
// Passing nil is a no-op.
func (r *Ring) PutPoly(p *Poly) {
	if p == nil {
		return
	}
	for i, l := range p.Limbs {
		r.putLimb(l)
		p.Limbs[i] = nil
	}
	p.Limbs = p.Limbs[:0]
	p.Basis = rns.Basis{}
	p.IsNTT = false
	r.polyPool.Put(p)
}

// GetPolyUninit returns a pooled polynomial over b with unspecified limb
// contents, for call sites that overwrite every coefficient (base-conversion
// scratch, mod-down outputs). IsNTT is false.
func (r *Ring) GetPolyUninit(b rns.Basis) *Poly { return r.getPolyUninit(b) }

// ViewAt fills a pooled shallow view of p: limb k of the view is
// p.Limbs[indices[k]], and the view carries basis b (which must list the
// corresponding moduli). The limb storage is shared with p — release the
// header with PutView, never PutPoly. The keyswitch plan path uses this to
// restrict evaluation-key polys to the working basis without allocating a
// header pair per digit.
func (r *Ring) ViewAt(p *Poly, b rns.Basis, indices []int) (*Poly, error) {
	if len(indices) != b.Len() {
		return nil, fmt.Errorf("ring: view of %d limbs for basis of %d", len(indices), b.Len())
	}
	v := r.getPolyHeader()
	v.Basis = b
	v.IsNTT = p.IsNTT
	if cap(v.Limbs) >= len(indices) {
		v.Limbs = v.Limbs[:len(indices)]
	} else {
		v.Limbs = make([][]uint64, len(indices))
	}
	for k, j := range indices {
		if j < 0 || j >= len(p.Limbs) {
			v.Limbs = v.Limbs[:0]
			r.polyPool.Put(v)
			return nil, fmt.Errorf("ring: view index %d out of range [0,%d)", j, len(p.Limbs))
		}
		v.Limbs[k] = p.Limbs[j]
	}
	return v, nil
}

// PutView returns a view header (from ViewAt) to the pool without touching
// the shared limb storage. Passing nil is a no-op.
func (r *Ring) PutView(v *Poly) {
	if v == nil {
		return
	}
	for i := range v.Limbs {
		v.Limbs[i] = nil
	}
	v.Limbs = v.Limbs[:0]
	v.Basis = rns.Basis{}
	v.IsNTT = false
	r.polyPool.Put(v)
}

// getPolyUninit returns a pooled polynomial over b with unspecified limb
// contents; for internal call sites that overwrite every coefficient.
func (r *Ring) getPolyUninit(b rns.Basis) *Poly {
	p := r.getPolyHeader()
	p.Basis = b
	p.IsNTT = false
	n := b.Len()
	if cap(p.Limbs) >= n {
		p.Limbs = p.Limbs[:n]
	} else {
		p.Limbs = make([][]uint64, n)
	}
	for i := range p.Limbs {
		p.Limbs[i] = r.getLimbNoZero()
	}
	return p
}

func (r *Ring) getPolyHeader() *Poly {
	if v := r.polyPool.Get(); v != nil {
		return v.(*Poly)
	}
	return &Poly{}
}

// putLimb returns one limb's storage to the pool (undersized slices are
// simply dropped for the collector).
func (r *Ring) putLimb(l []uint64) {
	if cap(l) < r.N {
		return
	}
	box := r.getBox()
	*box = l[:r.N]
	r.limbPool.Put(box)
}

// getLimb returns a zeroed length-N limb from the pool.
func (r *Ring) getLimb() []uint64 {
	l := r.getLimbNoZero()
	clear(l)
	return l
}

// getLimbNoZero returns a length-N limb with unspecified contents.
func (r *Ring) getLimbNoZero() []uint64 {
	if v := r.limbPool.Get(); v != nil {
		box := v.(*[]uint64)
		l := *box
		*box = nil
		r.boxPool.Put(box) // pointer into interface: no allocation
		return l[:r.N]
	}
	return make([]uint64, r.N)
}

// getBox returns an empty *[]uint64 header for PutPoly to wrap a limb in.
// Recycling these 24-byte boxes keeps a warm GetPoly/PutPoly cycle at zero
// heap allocations (boxing &l at every Put would allocate a header per
// limb).
func (r *Ring) getBox() *[]uint64 {
	if v := r.boxPool.Get(); v != nil {
		return v.(*[]uint64)
	}
	return new([]uint64)
}

package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"

	"cinnamon/internal/ring"
)

// Encoder maps vectors of complex numbers to ring plaintexts and back via
// the canonical embedding (paper Fig. 2 ①→②): slot j holds the evaluation
// of the plaintext polynomial at the primitive 2N-th root of unity raised
// to the 5^j-th power.
type Encoder struct {
	params   *Parameters
	m        int          // 2N
	rotGroup []int        // 5^j mod 2N
	ksiPows  []complex128 // e^{2πi·k/m} for k in [0, m]
}

// NewEncoder builds encoding tables for the parameter set.
func NewEncoder(params *Parameters) *Encoder {
	n := params.N()
	m := 2 * n
	e := &Encoder{
		params:   params,
		m:        m,
		rotGroup: make([]int, n/2),
		ksiPows:  make([]complex128, m+1),
	}
	five := 1
	for j := 0; j < n/2; j++ {
		e.rotGroup[j] = five
		five = five * 5 % m
	}
	for k := 0; k <= m; k++ {
		angle := 2 * math.Pi * float64(k) / float64(m)
		e.ksiPows[k] = cmplx.Exp(complex(0, angle))
	}
	return e
}

func bitReverseInPlace(v []complex128) {
	n := len(v)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
	}
}

// fftSpecial evaluates the plaintext-coefficient vector at the canonical
// embedding points (decode direction).
func (e *Encoder) fftSpecial(v []complex128) {
	size := len(v)
	bitReverseInPlace(v)
	for l := 2; l <= size; l <<= 1 {
		for i := 0; i < size; i += l {
			lh, lq := l>>1, l<<2
			for j := 0; j < lh; j++ {
				idx := (e.rotGroup[j] % lq) * e.m / lq
				u, w := v[i+j], v[i+j+lh]*e.ksiPows[idx]
				v[i+j], v[i+j+lh] = u+w, u-w
			}
		}
	}
}

// fftSpecialInv is the inverse transform (encode direction).
func (e *Encoder) fftSpecialInv(v []complex128) {
	size := len(v)
	for l := size; l >= 1; l >>= 1 {
		for i := 0; i < size; i += l {
			lh, lq := l>>1, l<<2
			for j := 0; j < lh; j++ {
				idx := (lq - e.rotGroup[j]%lq) * e.m / lq
				u, w := v[i+j]+v[i+j+lh], (v[i+j]-v[i+j+lh])*e.ksiPows[idx]
				v[i+j], v[i+j+lh] = u, w
			}
		}
	}
	bitReverseInPlace(v)
	inv := complex(1/float64(size), 0)
	for i := range v {
		v[i] *= inv
	}
}

// SpecialFFT applies the decode-direction slot transform in place.
// Exposed so the bootstrapper can build its CoeffToSlot/SlotToCoeff
// matrices numerically from the exact transform the encoder uses.
func (e *Encoder) SpecialFFT(v []complex128) { e.fftSpecial(v) }

// SpecialFFTInv applies the encode-direction transform in place.
func (e *Encoder) SpecialFFTInv(v []complex128) { e.fftSpecialInv(v) }

// Encode encodes values (len a power of two ≤ N/2) into a plaintext
// polynomial at the given level and scale. The polynomial is returned in
// the NTT domain, ready for homomorphic use.
func (e *Encoder) Encode(values []complex128, level int, scale float64) (*Plaintext, error) {
	slots := len(values)
	if slots == 0 || slots&(slots-1) != 0 || slots > e.params.Slots() {
		return nil, fmt.Errorf("ckks: slot count %d must be a power of two ≤ %d", slots, e.params.Slots())
	}
	basis, err := e.params.BasisAtLevel(level)
	if err != nil {
		return nil, err
	}
	v := append([]complex128(nil), values...)
	e.fftSpecialInv(v)
	nh := e.params.N() / 2
	gap := nh / slots
	p := e.params.Ring.NewPoly(basis)
	const maxCoeff = float64(1 << 62)
	for j := 0; j < slots; j++ {
		re := math.Round(real(v[j]) * scale)
		im := math.Round(imag(v[j]) * scale)
		if math.Abs(re) > maxCoeff || math.Abs(im) > maxCoeff {
			return nil, fmt.Errorf("ckks: encoded coefficient overflow at slot %d", j)
		}
		for k, q := range basis.Moduli {
			p.Limbs[k][j*gap] = reduceInt64(int64(re), q)
			p.Limbs[k][j*gap+nh] = reduceInt64(int64(im), q)
		}
	}
	if err := e.params.Ring.NTT(p); err != nil {
		return nil, err
	}
	return &Plaintext{Poly: p, Scale: scale, LevelV: level}, nil
}

// Decode recovers slots complex values from a plaintext.
func (e *Encoder) Decode(pt *Plaintext, slots int) ([]complex128, error) {
	if slots == 0 || slots&(slots-1) != 0 || slots > e.params.Slots() {
		return nil, fmt.Errorf("ckks: slot count %d must be a power of two ≤ %d", slots, e.params.Slots())
	}
	poly := pt.Poly.Copy()
	if err := e.params.Ring.INTT(poly); err != nil {
		return nil, err
	}
	nh := e.params.N() / 2
	gap := nh / slots
	v := make([]complex128, slots)
	for j := 0; j < slots; j++ {
		re, err := poly.CoeffToCentered(j * gap)
		if err != nil {
			return nil, err
		}
		im, err := poly.CoeffToCentered(j*gap + nh)
		if err != nil {
			return nil, err
		}
		fr, _ := new(big.Float).SetInt(re).Float64()
		fi, _ := new(big.Float).SetInt(im).Float64()
		v[j] = complex(fr/pt.Scale, fi/pt.Scale)
	}
	e.fftSpecial(v)
	return v, nil
}

// reduceInt64 maps a signed value into [0, q).
func reduceInt64(v int64, q uint64) uint64 {
	if v >= 0 {
		return uint64(v) % q
	}
	r := uint64(-v) % q
	if r == 0 {
		return 0
	}
	return q - r
}

// Plaintext is an encoded message: a ring polynomial with scale and level
// bookkeeping.
type Plaintext struct {
	Poly   *ring.Poly
	Scale  float64
	LevelV int
}

// Level returns the plaintext level.
func (p *Plaintext) Level() int { return p.LevelV }

package tensor

import "cinnamon/internal/dsl"

// backend abstracts the three replay targets of a compiled model. The
// lowerer owns all level/scale bookkeeping; backends only perform the
// mechanical op. Handles are backend-specific (dsl ciphertexts, plain
// slot vectors, or nil for the recording pass).
type backend interface {
	input() any
	rotate(h any, k int) any
	add(a, b any) any
	mulCt(a, b any) any
	mulPlain(h any, p *ptOperand) any
	addPlain(h any, p *ptOperand) any
	rescale(h any) any
	dropTo(h any, off int) any
}

// recordBackend is Compile's first walk: it executes nothing — the
// lowerer records operands and depth as a side effect.
type recordBackend struct{}

func (recordBackend) input() any                   { return nil }
func (recordBackend) rotate(any, int) any          { return nil }
func (recordBackend) add(any, any) any             { return nil }
func (recordBackend) mulCt(any, any) any           { return nil }
func (recordBackend) mulPlain(any, *ptOperand) any { return nil }
func (recordBackend) addPlain(any, *ptOperand) any { return nil }
func (recordBackend) rescale(h any) any            { return nil }
func (recordBackend) dropTo(h any, off int) any    { return nil }

// dslBackend emits the circuit on a dsl stream; plaintext operands are
// referenced by name and resolved by the serving registry's encoded
// specs.
type dslBackend struct {
	x       *dsl.Ciphertext
	inLevel int
}

func (b *dslBackend) input() any              { return b.x }
func (b *dslBackend) rotate(h any, k int) any { return h.(*dsl.Ciphertext).Rotate(k) }
func (b *dslBackend) add(x, y any) any        { return x.(*dsl.Ciphertext).Add(y.(*dsl.Ciphertext)) }
func (b *dslBackend) mulCt(x, y any) any      { return x.(*dsl.Ciphertext).Mul(y.(*dsl.Ciphertext)) }
func (b *dslBackend) mulPlain(h any, p *ptOperand) any {
	return h.(*dsl.Ciphertext).MulPlain(p.name)
}
func (b *dslBackend) addPlain(h any, p *ptOperand) any {
	return h.(*dsl.Ciphertext).AddPlain(p.name)
}
func (b *dslBackend) rescale(h any) any { return h.(*dsl.Ciphertext).Rescale() }
func (b *dslBackend) dropTo(h any, off int) any {
	return h.(*dsl.Ciphertext).DropLevel(b.inLevel - off)
}

// plainBackend replays the circuit on plain slot vectors: rotations are
// full-slot cyclic shifts, products are pointwise, rescale and level
// drops are identities. No crypto code is touched.
type plainBackend struct {
	in []complex128
}

func (b *plainBackend) input() any { return append([]complex128(nil), b.in...) }
func (b *plainBackend) rotate(h any, k int) any {
	v := h.([]complex128)
	out := make([]complex128, len(v))
	for i := range out {
		out[i] = v[(i+k)%len(v)]
	}
	return out
}
func (b *plainBackend) add(x, y any) any {
	a, c := x.([]complex128), y.([]complex128)
	out := make([]complex128, len(a))
	for i := range out {
		out[i] = a[i] + c[i]
	}
	return out
}
func (b *plainBackend) mulCt(x, y any) any {
	a, c := x.([]complex128), y.([]complex128)
	out := make([]complex128, len(a))
	for i := range out {
		out[i] = a[i] * c[i]
	}
	return out
}
func (b *plainBackend) mulPlain(h any, p *ptOperand) any {
	v := h.([]complex128)
	out := make([]complex128, len(v))
	for i := range out {
		out[i] = v[i] * complex(p.base[i%len(p.base)], 0)
	}
	return out
}
func (b *plainBackend) addPlain(h any, p *ptOperand) any {
	v := h.([]complex128)
	out := make([]complex128, len(v))
	for i := range out {
		out[i] = v[i] + complex(p.base[i%len(p.base)], 0)
	}
	return out
}
func (b *plainBackend) rescale(h any) any         { return h }
func (b *plainBackend) dropTo(h any, off int) any { return h }

package tensor

import (
	"cinnamon/internal/ckks"
	"cinnamon/internal/dsl"
)

// backend abstracts the three replay targets of a compiled model. The
// lowerer owns all level/scale bookkeeping; backends only perform the
// mechanical op. Handles are backend-specific (dsl/ckks ciphertexts,
// plain slot vectors, or nil for the recording pass).
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
// lowerer records rotations, operands and depth as a side effect.
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

// ckksBackend replays against the reference evaluator, encoding each
// operand at the level it is consumed and the exact symbolic scale the
// compiled program assumes. Evaluator errors abort the replay via the
// lowerer's panic channel and surface as Reference errors.
type ckksBackend struct {
	ev      *ckks.Evaluator
	enc     *ckks.Encoder
	params  *ckks.Parameters
	inLevel int
	x       *ckks.Ciphertext
}

func (b *ckksBackend) check(ct *ckks.Ciphertext, err error) any {
	if err != nil {
		bail("reference evaluation: %v", err)
	}
	return ct
}

func (b *ckksBackend) input() any { return b.x }
func (b *ckksBackend) rotate(h any, k int) any {
	return b.check(b.ev.Rotate(h.(*ckks.Ciphertext), k))
}
func (b *ckksBackend) add(x, y any) any {
	return b.check(b.ev.Add(x.(*ckks.Ciphertext), y.(*ckks.Ciphertext)))
}
func (b *ckksBackend) mulCt(x, y any) any {
	return b.check(b.ev.MulRelin(x.(*ckks.Ciphertext), y.(*ckks.Ciphertext)))
}
func (b *ckksBackend) encode(p *ptOperand) *ckks.Plaintext {
	scale, err := p.sc.eval(b.params, b.inLevel)
	if err != nil {
		bail("encoding operand %q: %v", p.name, err)
	}
	pt, err := b.enc.Encode(p.values(b.params.Slots()), b.inLevel-p.off, scale)
	if err != nil {
		bail("encoding operand %q: %v", p.name, err)
	}
	return pt
}
func (b *ckksBackend) mulPlain(h any, p *ptOperand) any {
	return b.check(b.ev.MulPlain(h.(*ckks.Ciphertext), b.encode(p)))
}
func (b *ckksBackend) addPlain(h any, p *ptOperand) any {
	return b.check(b.ev.AddPlain(h.(*ckks.Ciphertext), b.encode(p)))
}
func (b *ckksBackend) rescale(h any) any {
	return b.check(b.ev.Rescale(h.(*ckks.Ciphertext)))
}
func (b *ckksBackend) dropTo(h any, off int) any {
	return b.check(b.ev.DropLevel(h.(*ckks.Ciphertext), b.inLevel-off))
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

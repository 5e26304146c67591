package tensor

import (
	"hash/fnv"
	"math/rand"

	"cinnamon/internal/ckks"
)

// Model weights are derived deterministically from their qualified
// operand name ("model.operand"), the same convention the serving
// catalog uses for its toy kernels: the server encodes operands into the
// program registry and clients regenerate identical values for the
// reference and plaintext verifications, so no weight shipping or
// out-of-band agreement is needed.

func weightRNG(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// matrixWeights derives the rows×cols matrix for the named operand.
// Entries are uniform in [-1,1]/cols: the 1/cols fan-in normalization
// bounds |Wx| by max|x| so activation polynomials and downstream levels
// never overflow the modulus chain, even on adversarially dense inputs.
func matrixWeights(name string, rows, cols int) [][]float64 {
	rng := weightRNG(name)
	w := make([][]float64, rows)
	for r := range w {
		w[r] = make([]float64, cols)
		for c := range w[r] {
			w[r][c] = (rng.Float64()*2 - 1) / float64(cols)
		}
	}
	return w
}

// vectorWeights derives the length-n vector for the named operand,
// entries uniform in [-1,1].
func vectorWeights(name string, n int) []float64 {
	rng := weightRNG(name)
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

// PlaintextSpec describes one plaintext operand of a compiled program:
// its registry name, its slot values, and the exact encoding scale the
// lowering chose for it. The serving registry encodes specs once at
// startup; nil Values/Scale fall back to the catalog's broadcast-weight
// and default-scale conventions.
type PlaintextSpec struct {
	Name string
	// Values returns the full slot vector to encode. nil means the
	// catalog default (the FNV-derived broadcast weight for Name).
	Values func(slots int) []complex128
	// Scale returns the encoding scale for an input entering at inLevel,
	// or an error when the program cannot run from that level. nil means
	// the default scale at any level.
	Scale func(params *ckks.Parameters, inLevel int) (float64, error)
}

// ptOperand is the internal form: a d-periodic base block plus a
// symbolic scale, captured once during Compile and shared verbatim by
// every replay backend.
type ptOperand struct {
	name string
	base []float64 // length d, replicated across the slot vector
	sc   scaleExpr
}

// values replicates the base block across the slot vector.
func (p *ptOperand) values(slots int) []complex128 {
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(p.base[i%len(p.base)], 0)
	}
	return v
}

// broadcastBase fills a d-block with one value.
func broadcastBase(d int, v float64) []float64 {
	b := make([]float64, d)
	for i := range b {
		b[i] = v
	}
	return b
}

// padBase zero-pads a logical vector to the d-block; dim-1 (broadcast
// scalar) values fill the whole block to match a RowMajor matvec output.
func padBase(d int, vals []float64, dim int) []float64 {
	if dim == 1 {
		return broadcastBase(d, vals[0])
	}
	b := make([]float64, d)
	copy(b, vals)
	return b
}

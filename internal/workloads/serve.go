package workloads

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"cinnamon/internal/ckks"
	"cinnamon/internal/dsl"
	"cinnamon/internal/tensor"
)

// This file defines the online-serving workload catalog: small,
// functionally-executable programs a serving runtime (internal/serve)
// compiles once at startup and then evaluates on encrypted requests. They
// are deliberately sized for the CPU emulator (the functional backend),
// unlike the compile-only paper workloads above. Build is a program's
// only encrypted definition; EvalPlain is its meaning on plain slots, with
// no crypto in the loop, so clients verify responses to CKKS precision
// against something that shares no code with the server.

// ServeWorkload is one servable encrypted-inference program.
type ServeWorkload struct {
	// Name is the registry key (URL-safe).
	Name string
	// Description is a one-line human summary.
	Description string
	// Build records the circuit for one request on the given stream. The
	// serving runtime instantiates it once per batch slot (one stream per
	// queued request).
	Build func(s *dsl.Stream, x *dsl.Ciphertext) *dsl.Ciphertext
	// Reference is nil in the catalog. The serving registry sets it on each
	// compiled Program.Spec to one run of that program's executor on the
	// given evaluator (input truncated to the program's input level, the
	// encoder unused). It exists only for the frozen benchmark (bench/),
	// which still calls it, and goes when bench/ stops calling it.
	Reference func(ev *ckks.Evaluator, enc *ckks.Encoder, ct *ckks.Ciphertext) (*ckks.Ciphertext, error)
	// Rotations and NeedsRelin are ignored: the compiled plan derives the
	// keys a program needs (serve.Program.Rotations, RequiredKeys). They
	// stay only because bench/ sets them.
	Rotations  []int
	NeedsRelin bool
	// Plaintexts lists the plaintext operands the circuit consumes. A spec
	// with only a Name uses the catalog defaults (broadcast ServeWeight at
	// the default scale); tensor programs attach exact values and scales.
	Plaintexts []tensor.PlaintextSpec
	// MinLevels is the minimum usable ciphertext level (multiplicative
	// depth) the parameter set must provide; the registry skips programs
	// that do not fit instead of failing the whole catalog.
	MinLevels int
	// MinSlots is the minimum slot count the program's packing needs.
	MinSlots int
	// VerifyTol is the per-program decrypt-and-verify tolerance advertised
	// to clients: the worst slot error a served result may show against
	// EvalPlain. Deep circuits accumulate more CKKS noise than
	// one-multiply toys.
	VerifyTol float64
	// MakeInput draws a well-formed request vector for this program (nil
	// means any full-slot vector works). Tensor programs need replicated
	// block packing.
	MakeInput func(rng *rand.Rand, slots int) []complex128
	// EvalPlain computes the expected result on plain slot values, with no
	// crypto in the loop: the decrypt-and-verify ground truth of clients
	// and tests. Every catalog program has one.
	EvalPlain func(in []complex128) []complex128
}

// ServeWeight derives the deterministic scalar weight for a named
// plaintext operand, in [-1, 1]. Both the server (encoding operands into
// the program registry) and EvalPlain derive weights from the operand name
// alone.
func ServeWeight(name string) float64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	return rng.Float64()*2 - 1
}

// ServeWeightVector broadcasts the named weight across all slots.
func ServeWeightVector(name string, slots int) []complex128 {
	w := ServeWeight(name)
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(w, 0)
	}
	return v
}

// ServeParamsLiteral is the default functional parameter set for serving:
// small enough that the emulator answers interactively, deep enough for
// the catalog's depth-2 circuits.
func ServeParamsLiteral(logN, levels int, seed int64) ckks.ParametersLiteral {
	logQ := []int{55}
	for i := 0; i < levels; i++ {
		logQ = append(logQ, 45)
	}
	return ckks.ParametersLiteral{
		LogN:     logN,
		LogQ:     logQ,
		LogP:     []int{58, 58},
		LogScale: 45,
		Seed:     seed,
	}
}

// ServeWorkloads returns the serving catalog: the four toy kernels, the
// tensor-frontend models (TensorServeWorkloads), and the deep
// bootstrap-requiring programs (DeepServeWorkloads).
func ServeWorkloads() []ServeWorkload {
	return append([]ServeWorkload{
		{
			Name:        "square",
			Description: "y = x^2 (one ct-ct multiply + rescale)",
			VerifyTol:   1e-3,
			EvalPlain: func(in []complex128) []complex128 {
				out := make([]complex128, len(in))
				for i, x := range in {
					out[i] = x * x
				}
				return out
			},
			Build: func(s *dsl.Stream, x *dsl.Ciphertext) *dsl.Ciphertext {
				return x.Mul(x).Rescale()
			},
		},
		{
			Name:        "quartic",
			Description: "y = x^4 (depth-2 multiply chain)",
			VerifyTol:   1e-3,
			EvalPlain: func(in []complex128) []complex128 {
				out := make([]complex128, len(in))
				for i, x := range in {
					out[i] = x * x * x * x
				}
				return out
			},
			Build: func(s *dsl.Stream, x *dsl.Ciphertext) *dsl.Ciphertext {
				sq := x.Mul(x).Rescale()
				return sq.Mul(sq).Rescale()
			},
		},
		{
			Name:        "rotsum",
			Description: "y = sum_k rot(x,k), k in {1,2,4} (rotation keyswitches only)",
			VerifyTol:   1e-3,
			EvalPlain: func(in []complex128) []complex128 {
				out := make([]complex128, len(in))
				for _, k := range []int{1, 2, 4} {
					for i, x := range rotatePlain(in, k) {
						out[i] += x
					}
				}
				return out
			},
			Build: func(s *dsl.Stream, x *dsl.Ciphertext) *dsl.Ciphertext {
				return x.SumRotations([]int{1, 2, 4})
			},
		},
		{
			Name:        "wavg4",
			Description: "y = sum_k w_k*rot(x,k), k in {0..3} (plaintext-weighted sliding window)",
			VerifyTol:   1e-3,
			Plaintexts: []tensor.PlaintextSpec{
				{Name: "wavg4.w0"}, {Name: "wavg4.w1"}, {Name: "wavg4.w2"}, {Name: "wavg4.w3"},
			},
			EvalPlain: func(in []complex128) []complex128 {
				out := make([]complex128, len(in))
				for k := 0; k < 4; k++ {
					w := complex(ServeWeight(fmt.Sprintf("wavg4.w%d", k)), 0)
					for i, x := range rotatePlain(in, k) {
						out[i] += w * x
					}
				}
				return out
			},
			Build: func(s *dsl.Stream, x *dsl.Ciphertext) *dsl.Ciphertext {
				acc := x.MulPlain("wavg4.w0")
				for k := 1; k < 4; k++ {
					acc = acc.Add(x.Rotate(k).MulPlain(fmt.Sprintf("wavg4.w%d", k)))
				}
				return acc.Rescale()
			},
		},
	}, append(TensorServeWorkloads(), DeepServeWorkloads()...)...)
}

// rotatePlain is a full-slot cyclic rotation, out[i] = in[(i+k) mod n]:
// what a CKKS rotation by k does to the slot vector.
func rotatePlain(in []complex128, k int) []complex128 {
	n := len(in)
	out := make([]complex128, n)
	for i := range out {
		out[i] = in[(i+k)%n]
	}
	return out
}

// ServeWorkloadByName looks a catalog entry up.
func ServeWorkloadByName(name string) (ServeWorkload, bool) {
	for _, w := range ServeWorkloads() {
		if w.Name == name {
			return w, true
		}
	}
	return ServeWorkload{}, false
}

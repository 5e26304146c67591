// Package tensor is the linear-algebra frontend of the serving stack: it
// lowers small tensor programs (matrix–vector products, bias adds,
// elementwise ops, polynomial activations, a layernorm approximation)
// into packed CKKS circuits. One lowering walk runs against three
// backends:
//
//   - a recording pass (Compile) that fixes the plaintext operands and
//     their symbolic scales, and the depth;
//   - a dsl.Stream emitter (Build), the program's only encrypted
//     definition: the serve registry plans its graph and runs it on
//     sched.Executor, locally or over a cluster, and lowers it to the
//     limb ISA for the emulator;
//   - a plaintext slot-level simulation (EvalPlain) with no crypto in the
//     loop, the decrypt-and-verify ground truth for clients and tests.
//
// Packing model: a model works on blocks of d = 2^ceil(log2(maxDim))
// slots. Vectors are laid out in the first dim slots of each block
// (zero-padded to d) and replicated slots/d times across the ciphertext,
// so a full-slot rotation by k < d acts as an exact cyclic rotation
// within every block. All plaintext operands are d-periodic too, which
// keeps the layout closed under every op the frontend emits.
//
// Scale discipline: every tensor-level value is kept at exactly the
// default scale Δ by choosing plaintext encoding scales symbolically
// (see scaleExpr) — e.g. matvec diagonals are encoded at the current top
// modulus q_l so one rescale lands back on Δ. This means compiled
// programs never need SetScale fixups and the serve registry's inferred
// output scale is exactly Δ for every tensor program.
package tensor

import (
	"fmt"
	"math"
)

// Layout selects the matvec packing strategy.
type Layout int

const (
	// Auto picks by shape: rows==1 → RowMajor, d ≤ 8 → Diagonal,
	// else BSGS.
	Auto Layout = iota
	// RowMajor packs the single weight row over the block and reduces
	// with a log2(d) rotate-sum tree; the output is the dot product
	// broadcast to every slot. Only valid for rows == 1.
	RowMajor
	// Diagonal is the Halevi-Shoup layout: y = Σ_u diag_u ⊙ rot(x, u)
	// with up to d-1 rotations (all-zero diagonals are skipped).
	Diagonal
	// BSGS is the baby-step/giant-step diagonal layout: n1·n2 = d,
	// (n1-1) baby + (n2-1) giant rotations ≈ 2√d keyswitches instead of
	// d-1.
	BSGS
)

func (l Layout) String() string {
	switch l {
	case Auto:
		return "auto"
	case RowMajor:
		return "row-major"
	case Diagonal:
		return "diagonal"
	case BSGS:
		return "bsgs"
	}
	return fmt.Sprintf("layout(%d)", int(l))
}

type opKind int

const (
	opInput opKind = iota
	opMatVec
	opBias
	opScale
	opAdd
	opMul
	opPoly
	opLayerNorm
)

type node struct {
	id   int
	kind opKind
	args []*node
	dim  int // logical output length (1 means broadcast scalar)

	// matvec
	rows, cols int
	layout     Layout
	weight     string
	factor     float64 // fused scalar scaling of the weights
	bias       string  // fused bias operand ("" = none)
	biasFactor float64 // fused scalar scaling of the fused bias

	// bias / layernorm operand names
	name  string
	name2 string

	// scale
	c float64

	// poly coefficients, low-to-high degree
	coeffs []float64

	// fusion: a folded node lowers as a passthrough of its argument (its
	// effect was absorbed into the producer's or consumer's operands)
	folded bool
}

// Model is a small tensor program under construction. Ops are appended
// through the builder methods; errors are deferred to Compile so call
// sites can chain without checking each step.
type Model struct {
	name  string
	dim   int
	nodes []*node
	out   *node
	err   error
}

// Handle names an intermediate value of the model.
type Handle struct{ n *node }

// NewModel starts a model whose encrypted input is a vector of dim
// features (dim ≥ 2).
func NewModel(name string, dim int) *Model {
	m := &Model{name: name, dim: dim}
	if dim < 2 {
		m.fail(fmt.Errorf("tensor: input dim %d < 2", dim))
		dim = 2
	}
	m.newNode(opInput, dim)
	return m
}

func (m *Model) newNode(kind opKind, dim int, args ...*node) *node {
	n := &node{id: len(m.nodes), kind: kind, dim: dim, args: args, factor: 1}
	m.nodes = append(m.nodes, n)
	return n
}

func (m *Model) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// Input returns the handle of the encrypted input vector.
func (m *Model) Input() Handle { return Handle{m.nodes[0]} }

// Name returns the model name (the namespace of its weight operands).
func (m *Model) Name() string { return m.name }

// MatVec multiplies by the named deterministic rows×cols weight matrix
// (entries in [-1,1]/cols, derived from the operand name so server and
// clients agree without shipping weights). cols must match the input
// handle's dimension. Costs one level.
func (m *Model) MatVec(x Handle, name string, rows, cols int, layout Layout) Handle {
	if x.n == nil {
		m.fail(fmt.Errorf("tensor: MatVec %q on nil handle", name))
		return x
	}
	if rows < 1 || cols < 2 {
		m.fail(fmt.Errorf("tensor: MatVec %q shape %dx%d unsupported (need rows ≥ 1, cols ≥ 2)", name, rows, cols))
	}
	if x.n.dim != cols {
		m.fail(fmt.Errorf("tensor: MatVec %q expects a %d-vector, input has dim %d", name, cols, x.n.dim))
	}
	if layout == RowMajor && rows != 1 {
		m.fail(fmt.Errorf("tensor: MatVec %q: row-major layout needs rows == 1, have %d", name, rows))
	}
	n := m.newNode(opMatVec, rows, x.n)
	n.rows, n.cols, n.layout, n.weight = rows, cols, layout, name
	return Handle{n}
}

// BiasAdd adds the named deterministic bias vector (entries in [-1,1]).
// Free when it follows a MatVec (folded into the matvec's plaintexts),
// free-standing it is a plaintext add at the current scale.
func (m *Model) BiasAdd(x Handle, name string) Handle {
	if x.n == nil {
		m.fail(fmt.Errorf("tensor: BiasAdd %q on nil handle", name))
		return x
	}
	n := m.newNode(opBias, x.n.dim, x.n)
	n.name = name
	return Handle{n}
}

// Scale multiplies by the scalar c. Folded for free into an adjacent
// MatVec or Poly; standalone it costs one level.
func (m *Model) Scale(x Handle, c float64) Handle {
	if x.n == nil {
		m.fail(fmt.Errorf("tensor: Scale on nil handle"))
		return x
	}
	n := m.newNode(opScale, x.n.dim, x.n)
	n.c = c
	return Handle{n}
}

// Add is the elementwise ciphertext sum (free).
func (m *Model) Add(a, b Handle) Handle {
	if a.n == nil || b.n == nil {
		m.fail(fmt.Errorf("tensor: Add on nil handle"))
		return a
	}
	if a.n.dim != b.n.dim {
		m.fail(fmt.Errorf("tensor: Add dims %d vs %d", a.n.dim, b.n.dim))
	}
	return Handle{m.newNode(opAdd, a.n.dim, a.n, b.n)}
}

// Mul is the elementwise ciphertext product, renormalized back to the
// default scale (costs two levels).
func (m *Model) Mul(a, b Handle) Handle {
	if a.n == nil || b.n == nil {
		m.fail(fmt.Errorf("tensor: Mul on nil handle"))
		return a
	}
	if a.n.dim != b.n.dim {
		m.fail(fmt.Errorf("tensor: Mul dims %d vs %d", a.n.dim, b.n.dim))
	}
	return Handle{m.newNode(opMul, a.n.dim, a.n, b.n)}
}

// Poly applies the polynomial Σ coeffs[k]·x^k, degree ≤ 3 (the
// activation budget of the frontend). Degree 1 costs one level, degree 2
// two, degree 3 three.
func (m *Model) Poly(x Handle, coeffs []float64) Handle {
	if x.n == nil {
		m.fail(fmt.Errorf("tensor: Poly on nil handle"))
		return x
	}
	deg := polyDegree(coeffs)
	if deg < 1 || deg > 3 {
		m.fail(fmt.Errorf("tensor: Poly degree %d unsupported (want 1..3)", deg))
	}
	n := m.newNode(opPoly, x.n.dim, x.n)
	n.coeffs = append([]float64(nil), coeffs...)
	return Handle{n}
}

// LayerNorm applies the normalization approximation
// γ ⊙ (x-μ)·P(var) + β where P is a fixed quadratic fit of 1/√v — a
// depth-6 kernel. The input dimension must be a power of two (the
// rotate-sum mean/variance reductions cover the whole block, so padding
// slots would pollute the moments).
func (m *Model) LayerNorm(x Handle, gain, bias string) Handle {
	if x.n == nil {
		m.fail(fmt.Errorf("tensor: LayerNorm on nil handle"))
		return x
	}
	if x.n.dim < 2 || x.n.dim&(x.n.dim-1) != 0 {
		m.fail(fmt.Errorf("tensor: LayerNorm needs a power-of-two dim, have %d", x.n.dim))
	}
	n := m.newNode(opLayerNorm, x.n.dim, x.n)
	n.name, n.name2 = gain, bias
	return Handle{n}
}

// Output marks the model result.
func (m *Model) Output(x Handle) {
	if x.n == nil {
		m.fail(fmt.Errorf("tensor: Output on nil handle"))
		return
	}
	if m.out != nil {
		m.fail(fmt.Errorf("tensor: multiple outputs"))
	}
	m.out = x.n
}

func polyDegree(coeffs []float64) int {
	deg := 0
	for k, c := range coeffs {
		if c != 0 {
			deg = k
		}
	}
	return deg
}

// blockDim is the packing block size: the power of two covering every
// logical dimension the model touches.
func (m *Model) blockDim() int {
	d := 2
	for _, n := range m.nodes {
		for _, v := range []int{n.dim, n.cols, n.rows} {
			if p := pow2ceil(v); p > d {
				d = p
			}
		}
	}
	return d
}

func pow2ceil(v int) int {
	if v < 1 {
		return 1
	}
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// chooseLayout resolves Auto and validates explicit choices.
func chooseLayout(n *node, d int) Layout {
	if n.layout == Auto {
		switch {
		case n.rows == 1:
			return RowMajor
		case d <= 8:
			return Diagonal
		default:
			return BSGS
		}
	}
	return n.layout
}

// bsgsSplit factors d into n1·n2 with n1 ≥ n2, both powers of two —
// n1 baby steps, n2 giant steps.
func bsgsSplit(d int) (n1, n2 int) {
	log := int(math.Round(math.Log2(float64(d))))
	n1 = 1 << ((log + 1) / 2)
	return n1, d / n1
}

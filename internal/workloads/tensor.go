package workloads

import (
	"fmt"

	"cinnamon/internal/tensor"
)

// The tensor-frontend catalog: real linear-algebra models compiled into
// servable programs by internal/tensor. Weights stay deterministic (FNV
// from operand names, see tensor's weight derivation), so server and
// clients agree without shipping model files, exactly like the toy
// kernels above.

// LogregModel is the encrypted logistic-regression inference step: a
// 16-feature dot product with fused bias followed by a degree-3 sigmoid
// approximation σ(t) ≈ 0.5 + 0.197t − 0.004t³. Depth 3: one for the dot
// product, two for the cubic.
func LogregModel() *tensor.Model {
	m := tensor.NewModel("logreg16", 16)
	h := m.MatVec(m.Input(), "w", 1, 16, tensor.Auto)
	h = m.BiasAdd(h, "b")
	h = m.Poly(h, []float64{0.5, 0.197, 0, -0.004})
	m.Output(h)
	return m
}

// XformModel is a transformer-style linear block: a 64×64 matmul in the
// BSGS diagonal layout with fused bias. Depth 1, ~2√64 rotation keys.
func XformModel() *tensor.Model {
	m := tensor.NewModel("xform64", 64)
	h := m.MatVec(m.Input(), "wq", 64, 64, tensor.BSGS)
	h = m.BiasAdd(h, "bq")
	m.Output(h)
	return m
}

// tensorServeWorkload adapts a compiled tensor model into a catalog
// entry: the compiled artifacts (dsl emitter, plain evaluation and
// plaintext scales) are the workload.
func tensorServeWorkload(m *tensor.Model, desc string, tol float64) ServeWorkload {
	c, err := tensor.Compile(m)
	if err != nil {
		// Catalog models are static; a compile failure is a programming
		// error, not a runtime condition.
		panic(fmt.Sprintf("workloads: tensor model %q: %v", m.Name(), err))
	}
	return ServeWorkload{
		Name:        c.Name(),
		Description: desc,
		Build:       c.Build,
		Plaintexts:  c.PlaintextSpecs(),
		MinLevels:   c.Depth(),
		MinSlots:    c.BlockDim(),
		VerifyTol:   tol,
		MakeInput:   c.MakeInput,
		EvalPlain:   c.EvalPlain,
	}
}

// TensorServeWorkloads compiles the tensor-model catalog. Programs whose
// depth or packing exceeds the serving parameters are skipped by the
// registry (MinLevels/MinSlots), keeping shallow deployments working.
func TensorServeWorkloads() []ServeWorkload {
	return []ServeWorkload{
		tensorServeWorkload(LogregModel(),
			"logistic regression step: 16-feature matvec + bias + degree-3 sigmoid (depth 3)", 2e-3),
		tensorServeWorkload(XformModel(),
			"transformer linear block: 64x64 BSGS matmul + bias (depth 1)", 1e-3),
	}
}

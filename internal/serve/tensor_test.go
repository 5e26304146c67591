package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cinnamon/internal/polyir"
	"cinnamon/internal/workloads"
)

// TestTensorProgramsCompiled: the tensor-frontend catalog entries are in
// the registry with the exact metadata the frontend promises — input at
// level = depth, output at level 0 and exactly the default scale, and
// required keys that mirror the compiled rotation set one-for-one.
func TestTensorProgramsCompiled(t *testing.T) {
	reg := testEnv(t)
	def := reg.Params.DefaultScale()

	cases := []struct {
		name  string
		depth int
		relin bool
	}{
		{"logreg16", 3, true},
		{"xform64", 1, false},
	}
	for _, tc := range cases {
		p, ok := reg.Program(tc.name)
		if !ok {
			t.Fatalf("tensor program %q not in registry", tc.name)
		}
		if p.InLevel != tc.depth || p.OutLevel != 0 {
			t.Fatalf("%s: levels in %d out %d, want %d and 0", tc.name, p.InLevel, p.OutLevel, tc.depth)
		}
		if math.Abs(p.OutScale-def) > 1e-6*def {
			t.Fatalf("%s: out scale %g, want exactly the default scale %g", tc.name, p.OutScale, def)
		}
		// RequiredKeys is Rotations plus rlk when the program multiplies
		// ciphertexts, in numeric order.
		var wantKeys []string
		if tc.relin {
			wantKeys = append(wantKeys, "rlk")
		}
		for _, k := range p.Rotations {
			wantKeys = append(wantKeys, fmt.Sprintf("rot:%d", k))
		}
		if !reflect.DeepEqual(p.RequiredKeys, wantKeys) {
			t.Fatalf("%s: keys %v do not mirror rotations %v", tc.name, p.RequiredKeys, p.Rotations)
		}
		// The rotation set is exactly what the executed graph consumes.
		used := map[int]bool{}
		for _, n := range p.Executor().Graph.Nodes {
			if n.Kind == polyir.OpRotate {
				used[n.Rot] = true
			}
		}
		if len(used) != len(p.Rotations) {
			t.Fatalf("%s: graph rotates by %v, registry advertises %v", tc.name, used, p.Rotations)
		}
		for _, k := range p.Rotations {
			if !used[k] {
				t.Fatalf("%s: advertised rotation %d never used by the graph", tc.name, k)
			}
		}
	}

	// BSGS acceptance: the 64×64 matmul needs at most 2√64 = 16 rotation
	// keys, not the 63 of the plain diagonal method.
	xf, _ := reg.Program("xform64")
	if n := len(xf.Rotations); n > 16 {
		t.Fatalf("xform64 uses %d rotations, want ≤ 2√d = 16", n)
	}
	if n := len(xf.Rotations); n >= 63 {
		t.Fatalf("xform64 uses %d rotations — no better than plain diagonals", n)
	}
}

// TestRegistrySkipsDeepPrograms: a 2-level parameter set cannot host the
// depth-3 logistic regression; the registry must skip it (with a reason)
// and still serve everything else.
func TestRegistrySkipsDeepPrograms(t *testing.T) {
	lit := workloads.ServeParamsLiteral(8, 2, 20260805)
	reg, err := NewRegistry(RegistryConfig{Literal: lit})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Program("logreg16"); ok {
		t.Fatal("depth-3 logreg16 compiled into a 2-level registry")
	}
	if _, ok := reg.Program("logreg16-deep"); ok {
		t.Fatal("depth-20 logreg16-deep compiled into a 2-level registry without bootstrapping")
	}
	if len(reg.Skipped) != 2 {
		t.Fatalf("skipped %v, want exactly the two logreg entries", reg.Skipped)
	}
	for _, name := range []string{"square", "quartic", "rotsum", "wavg4", "xform64"} {
		if _, ok := reg.Program(name); !ok {
			t.Fatalf("%s missing from the 2-level registry", name)
		}
	}
}

// TestTensorServedMatchesPlainReference is the exit criterion in-process:
// both tensor programs served through the serving core, decrypted, and
// verified against the crypto-free plaintext reference.
func TestTensorServedMatchesPlainReference(t *testing.T) {
	reg := testEnv(t)
	core := NewCore(reg, Config{})
	defer core.Close(context.Background())

	for _, name := range []string{"logreg16", "xform64"} {
		spec, ok := workloads.ServeWorkloadByName(name)
		if !ok {
			t.Fatalf("no catalog entry %q", name)
		}
		rng := rand.New(rand.NewSource(20260808))
		in := spec.MakeInput(rng, reg.Params.Slots())
		want := spec.EvalPlain(in)

		env.cryptoMu.Lock()
		pt, err := env.enc.Encode(in, reg.Params.MaxLevel(), reg.Params.DefaultScale())
		if err != nil {
			env.cryptoMu.Unlock()
			t.Fatal(err)
		}
		ct, err := env.encr.Encrypt(pt)
		env.cryptoMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}

		out, err := core.Submit(context.Background(), name, testTenant, ct)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := decryptDecode(t, out)
		if e := maxSlotErr(got, want); e > spec.VerifyTol {
			t.Fatalf("%s: served result deviates from plaintext reference by %g (tol %g)", name, e, spec.VerifyTol)
		}
	}
}

package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"testing"

	"cinnamon/internal/ckks"
	"cinnamon/internal/sched"
	"cinnamon/internal/workloads"
)

// catalogKeys generates a fresh secret and every evaluation key reg's
// catalog needs under it.
func catalogKeys(t *testing.T, reg *Registry) (*ckks.Encryptor, map[string]*ckks.EvalKey) {
	t.Helper()
	kg := ckks.NewKeyGenerator(reg.Params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	rotSet := map[int]bool{}
	for _, name := range reg.ProgramNames() {
		p, _ := reg.Program(name)
		for _, k := range p.Rotations {
			rotSet[k] = true
		}
	}
	var rots []int
	for k := range rotSet {
		rots = append(rots, k)
	}
	sort.Ints(rots)
	rtks, err := kg.GenRotationKeySet(sk, rots, false)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]*ckks.EvalKey{"rlk": rlk}
	for k, key := range rtks.Keys {
		keys[fmt.Sprintf("rot:%d", k)] = key
	}
	return ckks.NewEncryptor(reg.Params, pk), keys
}

// TestInLevelIsLeast: every catalog program's InLevel is the least input
// level the rule admits — the plan one level lower fails or needs more
// refreshes than the plan at MaxLevel — and what the registry advertises for
// it is exactly what the executor does to a ciphertext at InLevel. Both at
// the test parameters and at the one-shot benchmark's logN 12, 4 levels.
func TestInLevelIsLeast(t *testing.T) {
	regs := []*Registry{testEnv(t)}
	reg12, err := NewRegistry(RegistryConfig{Literal: workloads.ServeParamsLiteral(12, 4, 20260805)})
	if err != nil {
		t.Fatal(err)
	}
	regs = append(regs, reg12)
	for _, reg := range regs {
		params := reg.Params
		encr, keys := catalogKeys(t, reg)
		ev, err := tenantEvaluator(params, keys)
		if err != nil {
			t.Fatal(err)
		}
		enc := ckks.NewEncoder(params)
		for _, name := range reg.ProgramNames() {
			p, _ := reg.Program(name)
			label := fmt.Sprintf("logN %d: %s", params.LogN(), name)
			top, err := planAt(params, p.Spec, params.MaxLevel(), 0)
			if err != nil {
				t.Fatalf("%s: plan at MaxLevel: %v", label, err)
			}
			if p.BootstrapsRequired > top.plan.Bootstraps {
				t.Fatalf("%s: %d refreshes at InLevel %d, %d at MaxLevel", label, p.BootstrapsRequired, p.InLevel, top.plan.Bootstraps)
			}
			if p.InLevel > 0 {
				if low, err := planAt(params, p.Spec, p.InLevel-1, 0); err == nil && low.plan.Bootstraps <= top.plan.Bootstraps {
					t.Fatalf("%s: InLevel %d, but the plan at %d succeeds with %d refreshes", label, p.InLevel, p.InLevel-1, low.plan.Bootstraps)
				}
			}
			pt, err := enc.Encode(make([]complex128, params.Slots()), p.InLevel, params.DefaultScale())
			if err != nil {
				t.Fatal(err)
			}
			ct, err := encr.Encrypt(pt)
			if err != nil {
				t.Fatal(err)
			}
			out, err := p.Executor().Run(context.Background(), ev, ct, sched.RunOpts{})
			if err != nil {
				t.Fatalf("%s: executor at InLevel %d: %v", label, p.InLevel, err)
			}
			if out.Level() != p.OutLevel || out.Scale != p.OutScale {
				t.Fatalf("%s: executor output %d/%g, registry advertises %d/%g", label, out.Level(), out.Scale, p.OutLevel, p.OutScale)
			}
		}
	}
}

// TestAdmissionTruncates: a one-shot above its program's InLevel runs on a
// limb-prefix view of itself — the response is byte for byte the response to
// a copy already dropped to InLevel, on a local and on a cluster core — the
// view copies no limb, and a ciphertext below InLevel is the client's 400.
func TestAdmissionTruncates(t *testing.T) {
	reg := testEnv(t)
	eng, _ := newTestCluster(t, 2)
	local := NewCore(reg, Config{Workers: 1})
	defer closeCoreT(t, local)
	clustered := NewCore(reg, Config{Workers: 1, RequireCluster: true, Backends: []BackendSpec{{Engine: eng}}})
	defer closeCoreT(t, clustered)
	ev, err := tenantEvaluator(reg.Params, env.keys)
	if err != nil {
		t.Fatal(err)
	}
	wire := func(ct *ckks.Ciphertext) []byte {
		var buf bytes.Buffer
		if err := ct.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	truncated := 0
	for i, name := range reg.ProgramNames() {
		prog, _ := reg.Program(name)
		ct, _ := encryptRandom(t, int64(9100+i))
		if prog.InLevel < ct.Level() {
			truncated++
		}
		dropped, err := ev.DropLevel(ct, prog.InLevel)
		if err != nil {
			t.Fatal(err)
		}
		for _, core := range []*Core{local, clustered} {
			got, err := core.Submit(context.Background(), name, testTenant, ct)
			if err != nil {
				t.Fatalf("%s: submit at level %d: %v", name, ct.Level(), err)
			}
			want, err := core.Submit(context.Background(), name, testTenant, dropped)
			if err != nil {
				t.Fatalf("%s: submit at InLevel %d: %v", name, prog.InLevel, err)
			}
			if !bytes.Equal(wire(got), wire(want)) {
				t.Fatalf("%s: response to a level-%d request differs from the response at InLevel %d", name, ct.Level(), prog.InLevel)
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no catalog program runs below MaxLevel: nothing was truncated")
	}
	if snap := eng.Snapshot(); snap.Broadcasts == 0 && snap.Aggregations == 0 {
		t.Fatal("cluster counters show no collectives: the cluster core was not exercised")
	}

	// The view shares the request's limbs and allocates no limb of its own.
	ct, _ := encryptRandom(t, 9200)
	view := ct.AtLevel(0)
	if view.Level() != 0 || view.Scale != ct.Scale || &view.C0.Limbs[0][0] != &ct.C0.Limbs[0][0] || &view.C1.Limbs[0][0] != &ct.C1.Limbs[0][0] {
		t.Fatal("AtLevel did not return a limb-prefix view of its ciphertext")
	}
	if raceEnabled {
		t.Log("allocation ceiling skipped: the race detector perturbs allocation counts")
	} else {
		limb := float64(8 * reg.Params.N())
		if b := allocBytes(100, func() { view = ct.AtLevel(1) }); b >= limb {
			t.Fatalf("truncating a ciphertext allocated %.0f bytes, at least one %.0f-byte limb", b, limb)
		}
	}

	// Below InLevel the program would run out of levels: a client error.
	qu, _ := reg.Program("quartic")
	low, err := ev.DropLevel(ct, qu.InLevel-1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = local.Submit(context.Background(), "quartic", testTenant, low)
	if !errors.Is(err, ErrBadRequest) || statusFor(err) != http.StatusBadRequest {
		t.Fatalf("quartic at level %d below its InLevel %d: %v, want ErrBadRequest (400)", low.Level(), qu.InLevel, err)
	}
}

package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"cinnamon/internal/ckks"
	"cinnamon/internal/keyswitch"
)

func TestRegistryCompilesCatalog(t *testing.T) {
	reg := testEnv(t)
	names := reg.ProgramNames()
	if len(names) < 4 {
		t.Fatalf("expected >= 4 programs, got %v", names)
	}
	// The 4-level test chain hosts every shallow catalog program; each one's
	// input level is its multiplicative depth.
	inLevels := map[string]int{"square": 1, "quartic": 2, "rotsum": 0, "wavg4": 1, "logreg16": 3, "xform64": 1}
	for _, name := range names {
		p, ok := reg.Program(name)
		if !ok {
			t.Fatalf("missing %q", name)
		}
		if v := p.VariantFor(1); v == nil || v.Module == nil {
			t.Fatalf("%s: no batch-1 limb module: %+v", name, v)
		}
		if p.Executor() == nil || p.Bootstrapped {
			t.Fatalf("%s: executor %v, bootstrapped %v", name, p.Executor(), p.Bootstrapped)
		}
		// Each program enters at its own depth, not at the top of the chain.
		if want, ok := inLevels[name]; !ok || p.InLevel != want {
			t.Fatalf("%s: input level %d, want %d", name, p.InLevel, want)
		}
	}
}

func TestRegistryOutputMetadata(t *testing.T) {
	reg := testEnv(t)
	def := reg.Params.DefaultScale()

	// A program's output is what its plan does to an input at its InLevel.
	sq, _ := reg.Program("square")
	if sq.InLevel != 1 || sq.OutLevel != 0 {
		t.Fatalf("square levels in %d out %d, want 1 and 0", sq.InLevel, sq.OutLevel)
	}
	wantScale := def * def / float64(reg.Params.QBasis.Moduli[1])
	if math.Abs(sq.OutScale-wantScale) > 1e-6*wantScale {
		t.Fatalf("square out scale %g, want %g", sq.OutScale, wantScale)
	}
	if !reflect.DeepEqual(sq.RequiredKeys, []string{"rlk"}) {
		t.Fatalf("square keys %v", sq.RequiredKeys)
	}

	rs, _ := reg.Program("rotsum")
	if rs.InLevel != 0 || rs.OutLevel != 0 || rs.OutScale != def {
		t.Fatalf("rotsum in %d out (%d, %g), want 0 and (0, %g)", rs.InLevel, rs.OutLevel, rs.OutScale, def)
	}
	if !reflect.DeepEqual(rs.RequiredKeys, []string{"rot:1", "rot:2", "rot:4"}) {
		t.Fatalf("rotsum keys %v", rs.RequiredKeys)
	}

	qu, _ := reg.Program("quartic")
	if qu.InLevel != 2 || qu.OutLevel != 0 {
		t.Fatalf("quartic levels in %d out %d, want 2 and 0", qu.InLevel, qu.OutLevel)
	}

	wa, _ := reg.Program("wavg4")
	if !reflect.DeepEqual(wa.RequiredKeys, []string{"rot:1", "rot:2", "rot:3"}) {
		t.Fatalf("wavg4 keys %v", wa.RequiredKeys)
	}
	if len(wa.Plaintexts) != 4 {
		t.Fatalf("wavg4 has %d encoded plaintexts", len(wa.Plaintexts))
	}
}

func TestTenantKeyChecks(t *testing.T) {
	reg := testEnv(t)
	core := NewCore(reg, Config{})
	defer core.Close(context.Background())
	ct, _ := encryptRandom(t, 99)

	if _, err := core.Submit(context.Background(), "nope", testTenant, ct); err == nil || statusFor(err) != 404 {
		t.Fatalf("unknown program: %v", err)
	}
	if _, err := core.Submit(context.Background(), "square", "ghost", ct); err == nil || statusFor(err) != 403 {
		t.Fatalf("unknown tenant: %v", err)
	}
	// A tenant registered without the relinearization key cannot run
	// multiply programs.
	if err := reg.RegisterTenant("keyless", map[string]*ckks.EvalKey{}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Submit(context.Background(), "square", "keyless", ct); err == nil || statusFor(err) != 403 {
		t.Fatalf("missing keys: %v", err)
	}
}

func TestKeyBundleRoundTrip(t *testing.T) {
	reg := testEnv(t)
	var buf bytes.Buffer
	if err := WriteKeyBundle(&buf, env.keys); err != nil {
		t.Fatal(err)
	}
	got, err := ReadKeyBundle(bytes.NewReader(buf.Bytes()), reg.Params)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(env.keys) {
		t.Fatalf("round trip lost keys: %d vs %d", len(got), len(env.keys))
	}
	// Corrupt the magic.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[0] ^= 0xff
	if _, err := ReadKeyBundle(bytes.NewReader(raw), reg.Params); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	// Truncate mid-key.
	if _, err := ReadKeyBundle(bytes.NewReader(buf.Bytes()[:buf.Len()/2]), reg.Params); err == nil {
		t.Fatal("truncated bundle accepted")
	}
}

func TestSubmitRejectsBadCiphertext(t *testing.T) {
	reg := testEnv(t)
	core := NewCore(reg, Config{})
	defer core.Close(context.Background())
	ct, _ := encryptRandom(t, 7)
	bad := ct.Copy()
	bad.Scale = ct.Scale * 2
	if _, err := core.Submit(context.Background(), "square", testTenant, bad); err == nil || statusFor(err) != 400 {
		t.Fatalf("scale mismatch: %v", err)
	}
}

// TestRegisterRejectsPartitionedKey: a key with a digit partition cannot
// be registered. The key bundle does not carry the partition, so once the
// tenant spilled, its reload would hand back the same digits labelled as
// hybrid digits — a different key than the one registered.
func TestRegisterRejectsPartitionedKey(t *testing.T) {
	reg := squareRegistry(t, 1) // every registration spills
	kg := ckks.NewKeyGenerator(reg.Params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	modKeys, err := keyswitch.GenModularRotationKeys(reg.Params, sk, 2, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	keys := genTenantKeys(t, reg.Params)
	keys["rot:1"] = modKeys[1]
	err = reg.RegisterTenant("partitioned", keys)
	if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), `"rot:1"`) {
		t.Fatalf("partitioned key: got %v, want ErrBadRequest naming rot:1", err)
	}
	if _, ok := reg.TenantKeys("partitioned"); ok {
		t.Fatal("a refused registration left the tenant registered")
	}
}

// TestRegisterRejectsBadKeyNames: a key name other than "rlk", "conj" or
// "rot:<k>" with k in canonical decimal fails registration with
// ErrBadRequest (400) and leaves no tenant behind. Every run parses the
// names, so a malformed one would fail each run of the tenant with a 500,
// and "rot:1" beside "rot:01" would leave map order to pick the key.
func TestRegisterRejectsBadKeyNames(t *testing.T) {
	reg := squareRegistry(t, 1) // every registration spills
	rlk := genTenantKeys(t, reg.Params)["rlk"]
	for _, bad := range []string{"rot:x", "rot:01", "rot:+1", "rot:-0", "rot:", "rot: 1", "Rlk", "galois"} {
		err := reg.RegisterTenant("named", map[string]*ckks.EvalKey{"rlk": rlk, bad: rlk})
		if !errors.Is(err, ErrBadRequest) || statusFor(err) != http.StatusBadRequest {
			t.Fatalf("key name %q: got %v, want ErrBadRequest", bad, err)
		}
		if _, ok := reg.TenantKeys("named"); ok {
			t.Fatalf("key name %q: a refused registration left the tenant registered", bad)
		}
	}
	for _, good := range []string{"conj", "rot:0", "rot:1", "rot:-3", "rot:127"} {
		if err := reg.RegisterTenant("named", map[string]*ckks.EvalKey{"rlk": rlk, good: rlk}); err != nil {
			t.Fatalf("key name %q: %v", good, err)
		}
	}
}

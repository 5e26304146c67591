package serve

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cinnamon/internal/ckks"
	"cinnamon/internal/workloads"
)

// The fixture compiles the registry once (prime generation and program
// compilation are the slow parts) and shares it across tests; each test
// builds its own Core on top.
var env struct {
	once sync.Once
	err  error

	lit ckks.ParametersLiteral
	reg *Registry

	sk   *ckks.SecretKey
	keys map[string]*ckks.EvalKey

	cryptoMu sync.Mutex // key-material ops are stateful (samplers)
	enc      *ckks.Encoder
	encr     *ckks.Encryptor
	decr     *ckks.Decryptor
}

const testTenant = "tenant-a"

func testEnvInit() {
	// Four levels: deep enough for the tensor catalog's depth-3 logistic
	// regression (the depth-2 toy kernels leave the rest unused).
	env.lit = workloads.ServeParamsLiteral(8, 4, 20260805)
	env.reg, env.err = NewRegistry(RegistryConfig{Literal: env.lit})
	if env.err != nil {
		return
	}
	params := env.reg.Params
	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		env.err = err
		return
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		env.err = err
		return
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		env.err = err
		return
	}
	// One key set serving the whole catalog: the union of every compiled
	// program's exact rotation set (plus rot:3 for wavg4's window).
	rotSet := map[int]bool{}
	for _, name := range env.reg.ProgramNames() {
		p, _ := env.reg.Program(name)
		for _, k := range p.Rotations {
			rotSet[k] = true
		}
	}
	rots := make([]int, 0, len(rotSet))
	for k := range rotSet {
		rots = append(rots, k)
	}
	sort.Ints(rots)
	rtks, err := kg.GenRotationKeySet(sk, rots, false)
	if err != nil {
		env.err = err
		return
	}
	env.sk = sk
	env.keys = map[string]*ckks.EvalKey{"rlk": rlk}
	for k, key := range rtks.Keys {
		env.keys[fmt.Sprintf("rot:%d", k)] = key
	}
	env.enc = ckks.NewEncoder(params)
	env.encr = ckks.NewEncryptor(params, pk)
	env.decr = ckks.NewDecryptor(params, sk)
	env.err = env.reg.RegisterTenant(testTenant, env.keys)
}

func testEnv(t testing.TB) *Registry {
	t.Helper()
	env.once.Do(testEnvInit)
	if env.err != nil {
		t.Fatalf("test env: %v", env.err)
	}
	return env.reg
}

// encryptRandom encrypts a full-slot random vector derived from seed.
func encryptRandom(t testing.TB, seed int64) (*ckks.Ciphertext, []complex128) {
	t.Helper()
	params := env.reg.Params
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex128, params.Slots())
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	env.cryptoMu.Lock()
	defer env.cryptoMu.Unlock()
	pt, err := env.enc.Encode(v, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := env.encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct, v
}

func decryptDecode(t testing.TB, ct *ckks.Ciphertext) []complex128 {
	t.Helper()
	env.cryptoMu.Lock()
	defer env.cryptoMu.Unlock()
	pt, err := env.decr.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	v, err := env.enc.Decode(pt, env.reg.Params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// plainErr decrypts a served result and returns its worst slot error
// against the program's plaintext model on the request's plain input,
// together with the tolerance the program advertises.
func plainErr(t testing.TB, name string, in []complex128, out *ckks.Ciphertext) (worst, tol float64) {
	t.Helper()
	prog, ok := env.reg.Program(name)
	if !ok {
		t.Fatalf("no program %q", name)
	}
	return maxSlotErr(decryptDecode(t, out), prog.Spec.EvalPlain(in)), prog.Spec.VerifyTol
}

func maxSlotErr(a, b []complex128) float64 {
	w := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > w {
			w = e
		}
	}
	return w
}

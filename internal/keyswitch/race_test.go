package keyswitch

import (
	"math/rand"
	"sync"
	"testing"

	"cinnamon/internal/ckks"
)

// TestConcurrentEvaluatorSharedRing drives evaluator and keyswitch-engine
// operations from many goroutines over ONE shared Ring, as concurrent
// requests do. Under `go test -race` this checks every shared structure
// the limb loops touch: the ring's Barrett tables,
// the automorphism-index and base-converter caches, the mod-down/rescale
// constant caches, and the sync.Pool-backed polynomial buffers.
func TestConcurrentEvaluatorSharedRing(t *testing.T) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     11,
		LogQ:     []int{55, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
		Seed:     99,
	})
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
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
	rots := []int{1, 3}
	rtks, err := kg.GenRotationKeySet(sk, rots, false)
	if err != nil {
		t.Fatal(err)
	}
	enc := ckks.NewEncoder(params)
	decr := ckks.NewDecryptor(params, sk)
	ev := ckks.NewEvaluator(params, rlk, rtks)
	eng, err := NewEngine(params, 2)
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		iters   = 3
		slots   = 64
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// Encryptors hold a private sampler state, so they are
			// per-client (per-goroutine); everything downstream — ring,
			// evaluator, keyswitch engine, keys — is shared.
			encr := ckks.NewEncryptor(params, pk)
			for it := 0; it < iters; it++ {
				v := make([]complex128, slots)
				for i := range v {
					v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
				}
				pt, err := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
				if err != nil {
					errCh <- err
					return
				}
				ct, err := encr.Encrypt(pt)
				if err != nil {
					errCh <- err
					return
				}
				// Evaluator path: square, rescale, rotate.
				sq, err := ev.MulRelin(ct, ct)
				if err != nil {
					errCh <- err
					return
				}
				if sq, err = ev.Rescale(sq); err != nil {
					errCh <- err
					return
				}
				rot, err := ev.Rotate(sq, rots[int(seed)%len(rots)])
				if err != nil {
					errCh <- err
					return
				}
				dec, err := decr.Decrypt(rot)
				if err != nil {
					errCh <- err
					return
				}
				got, err := enc.Decode(dec, slots)
				if err != nil {
					errCh <- err
					return
				}
				k := rots[int(seed)%len(rots)]
				for i := 0; i < slots; i++ {
					want := v[(i+k)%slots] * v[(i+k)%slots]
					if d := got[i] - want; real(d)*real(d)+imag(d)*imag(d) > 1e-4 {
						errCh <- errMismatch(i, got[i], want)
						return
					}
				}
				// Keyswitch-engine path on the same shared ring.
				if _, _, _, err := eng.KeySwitch(ct.C1, rlk, InputBroadcast); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

type errMismatchT struct {
	i         int
	got, want complex128
}

func errMismatch(i int, got, want complex128) error { return errMismatchT{i, got, want} }

func (e errMismatchT) Error() string {
	return "slot mismatch under concurrency"
}

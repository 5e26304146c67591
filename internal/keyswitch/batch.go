package keyswitch

import (
	"fmt"

	"cinnamon/internal/ckks"
	"cinnamon/internal/ring"
)

// The batched kernels below are the two program patterns the Cinnamon
// keyswitch compiler pass recognizes (paper §4.3.1 "Cinnamon Keyswitch
// Pass"):
//
//  1. r rotations of one ciphertext  → input broadcast, ONE broadcast for
//     the whole batch (the broadcast of the input limbs is hoisted before
//     the automorphisms, which are limb-local).
//  2. r rotations followed by an aggregation → output aggregation, TWO
//     aggregate-and-scatter operations for the whole batch (mod-down and
//     summation commute, so all evaluation-key products are accumulated
//     before the single aggregate).

// HoistedRotations rotates ct by every offset in ks using input-broadcast
// keyswitching with the batch optimization: the input limbs are broadcast
// once, after which each rotation is communication-free.
func (e *Engine) HoistedRotations(ct *ckks.Ciphertext, ks []int, rtks *ckks.RotationKeySet) ([]*ckks.Ciphertext, CommStats, error) {
	r := e.Params.Ring
	l := ct.Level()
	stats := CommStats{Broadcasts: 1, LimbsMoved: (l + 1) * (e.NChips - 1)}
	out := make([]*ckks.Ciphertext, len(ks))
	for i, k := range ks {
		key := rtks.Keys[k]
		if key == nil {
			return nil, stats, fmt.Errorf("keyswitch: no rotation key for offset %d", k)
		}
		g := r.GaloisElementForRotation(k)
		s0 := r.NewPoly(ct.C0.Basis)
		s1 := r.NewPoly(ct.C0.Basis)
		if err := r.Automorphism(ct.C0, g, s0); err != nil {
			return nil, stats, err
		}
		if err := r.Automorphism(ct.C1, g, s1); err != nil {
			return nil, stats, err
		}
		// Communication-free: the broadcast already delivered every input
		// limb, and the automorphism is limb-local.
		f0, f1, _, err := e.inputBroadcast(s1, key)
		if err != nil {
			return nil, stats, err
		}
		if err := r.Add(s0, f0, s0); err != nil {
			return nil, stats, err
		}
		out[i] = &ckks.Ciphertext{C0: s0, C1: f1, Scale: ct.Scale}
	}
	return out, stats, nil
}

// RotateAndSum computes Σ_k Rotate(ct, k) using output-aggregation
// keyswitching with the batch optimization: the evaluation-key products of
// all r keyswitches are accumulated locally and a single pair of
// aggregate-and-scatter operations finishes the batch. keys must be
// modular-digit keys (GenEvalKeyDigits with ModularDigitSets).
func (e *Engine) RotateAndSum(ct *ckks.Ciphertext, ks []int, keys map[int]*ckks.EvalKey) (*ckks.Ciphertext, CommStats, error) {
	params, r := e.Params, e.Params.Ring
	l := ct.Level()
	n := e.NChips
	stats := CommStats{Aggregations: 2, LimbsMoved: 2 * (l + 1) * (n - 1)}
	union, err := e.unionBasis(ct.C0)
	if err != nil {
		return nil, stats, err
	}
	// Accumulators: rotated c0 parts (limb-local) and per-chip evaluation
	// key products over the union basis (before mod-down). The key products
	// use fused 128-bit accumulation across the whole batch — one Barrett
	// reduction per coefficient at the end instead of a reduce-and-add per
	// rotation (LazyAcc folds early if the batch outgrows its lazy budget).
	c0Sum := r.NewPoly(ct.C0.Basis)
	c0Sum.IsNTT = true
	chipAcc0 := make([]*ring.LazyAcc, n)
	chipAcc1 := make([]*ring.LazyAcc, n)
	for c := 0; c < n; c++ {
		chipAcc0[c] = r.GetLazyAcc(union)
		chipAcc1[c] = r.GetLazyAcc(union)
		defer chipAcc0[c].Release()
		defer chipAcc1[c].Release()
	}
	s0 := r.NewPoly(ct.C0.Basis)
	s1 := r.NewPoly(ct.C0.Basis)
	for _, k := range ks {
		key := keys[k]
		if key == nil {
			return nil, stats, fmt.Errorf("keyswitch: no modular-digit key for offset %d", k)
		}
		if key.DigitSets == nil || len(key.DigitSets) != n {
			return nil, stats, fmt.Errorf("keyswitch: offset %d key is not a %d-chip modular-digit key", k, n)
		}
		g := r.GaloisElementForRotation(k)
		if err := r.Automorphism(ct.C0, g, s0); err != nil {
			return nil, stats, err
		}
		if err := r.Add(c0Sum, s0, c0Sum); err != nil {
			return nil, stats, err
		}
		if err := r.Automorphism(ct.C1, g, s1); err != nil {
			return nil, stats, err
		}
		cc := s1.Copy()
		if err := r.INTT(cc); err != nil {
			return nil, stats, err
		}
		for chip := 0; chip < n; chip++ {
			mine, _ := OADigitSet(key, n, chip, l) // validated above
			if len(mine) == 0 {
				continue
			}
			mineLimbs := make([][]uint64, len(mine))
			for k, j := range mine {
				mineLimbs[k] = cc.Limbs[j]
			}
			ext, err := e.scatteredDigitModUp(mine, mineLimbs, l+1, union)
			if err != nil {
				return nil, stats, err
			}
			if err := r.NTT(ext); err != nil {
				r.PutPoly(ext)
				return nil, stats, err
			}
			bD, err := r.Restrict(key.B[chip], union)
			if err == nil {
				err = chipAcc0[chip].MulAcc(ext, bD)
			}
			var aD *ring.Poly
			if err == nil {
				aD, err = r.Restrict(key.A[chip], union)
			}
			if err == nil {
				err = chipAcc1[chip].MulAcc(ext, aD)
			}
			r.PutPoly(ext)
			if err != nil {
				return nil, stats, err
			}
		}
	}
	// Per-chip reduction and mod-down of the batch accumulator, then one
	// aggregation.
	f0Sum := r.NewPoly(ct.C0.Basis)
	f1Sum := r.NewPoly(ct.C0.Basis)
	f := r.GetPoly(union)
	defer r.PutPoly(f)
	for chip := 0; chip < n; chip++ {
		for fi, acc := range []*ring.LazyAcc{chipAcc0[chip], chipAcc1[chip]} {
			acc.ReduceInto(f)
			if err := r.INTT(f); err != nil {
				return nil, stats, err
			}
			down, err := r.ModDown(f, params.PBasis)
			if err != nil {
				return nil, stats, err
			}
			dst := f0Sum
			if fi == 1 {
				dst = f1Sum
			}
			if err := r.Add(dst, down, dst); err != nil {
				return nil, stats, err
			}
		}
	}
	if err := r.NTT(f0Sum); err != nil {
		return nil, stats, err
	}
	if err := r.NTT(f1Sum); err != nil {
		return nil, stats, err
	}
	if err := r.Add(c0Sum, f0Sum, c0Sum); err != nil {
		return nil, stats, err
	}
	return &ckks.Ciphertext{C0: c0Sum, C1: f1Sum, Scale: ct.Scale}, stats, nil
}

// GenModularRotationKeys generates rotation keys in the modular-digit
// format output aggregation requires, for every offset in ks.
func GenModularRotationKeys(params *ckks.Parameters, sk *ckks.SecretKey, nChips int, ks []int) (map[int]*ckks.EvalKey, error) {
	kg := ckks.NewKeyGenerator(params)
	sets := ModularDigitSets(params, nChips)
	r := params.Ring
	out := map[int]*ckks.EvalKey{}
	for _, k := range ks {
		if _, ok := out[k]; ok {
			continue
		}
		g := r.GaloisElementForRotation(k)
		sRot := r.NewPoly(params.QPBasis())
		if err := r.Automorphism(sk.S, g, sRot); err != nil {
			return nil, err
		}
		key, err := kg.GenEvalKeyDigits(sRot, sk, sets)
		if err != nil {
			return nil, err
		}
		out[k] = key
	}
	return out, nil
}

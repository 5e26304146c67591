// Command cinnamon-cluster is the cluster verification tool: it connects
// to a set of cinnamon-worker processes, runs serve workloads through the
// distributed input-broadcast keyswitch (ciphertext limbs partitioned
// across the workers), and checks the results bit-for-bit against a
// single-process run of the same workloads. It is what the CI cluster
// smoke uses to prove that a real multi-process cluster computes exactly
// what one process computes.
//
// Usage:
//
//	cinnamon-cluster -workers localhost:9101,localhost:9102,localhost:9103
//	cinnamon-cluster -workers ... -programs quartic,rotsum -logn 8 -levels 3
//
// Exit status is 0 only if every program matched bit-exactly; the final
// line of output is a JSON snapshot of the cluster transport counters. A
// worker lost mid-run is an error (the engine has no local fallback, so a
// PASS line always means the workers computed the result).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/workloads"
)

func main() {
	workers := flag.String("workers", "", "comma-separated cinnamon-worker addresses (required)")
	programs := flag.String("programs", "quartic,rotsum", "comma-separated serve workloads to verify")
	logN := flag.Int("logn", 8, "ring degree log2 (must match workers)")
	levels := flag.Int("levels", 3, "multiplicative levels (must match workers)")
	seed := flag.Int64("seed", 20260805, "parameter generation seed (must match workers)")
	flag.Parse()

	if *workers == "" {
		fmt.Fprintln(os.Stderr, "error: -workers is required")
		os.Exit(2)
	}
	ok, err := run(*workers, *programs, *logN, *levels, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(workerAddrs, programList string, logN, levels int, seed int64) (bool, error) {
	params, err := ckks.NewParameters(workloads.ServeParamsLiteral(logN, levels, seed))
	if err != nil {
		return false, err
	}

	var dialers []cluster.Dialer
	for _, a := range strings.Split(workerAddrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			dialers = append(dialers, cluster.TCPDialer{Addr: a})
		}
	}
	eng, err := cluster.NewEngine(params, dialers, cluster.Options{})
	if err != nil {
		return false, fmt.Errorf("cluster startup: %w", err)
	}
	defer eng.Close()
	log.Printf("cluster up: %d workers", eng.NChips())

	// Key material and two evaluators over it: `distributed` keyswitches
	// through the cluster, `local` runs the stock single-process path.
	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		return false, err
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		return false, err
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		return false, err
	}

	names := strings.Split(programList, ",")
	rotSet := map[int]bool{}
	for _, name := range names {
		spec, ok := workloads.ServeWorkloadByName(strings.TrimSpace(name))
		if !ok {
			return false, fmt.Errorf("unknown serve workload %q", name)
		}
		for _, r := range spec.Rotations {
			rotSet[r] = true
		}
	}
	rots := make([]int, 0, len(rotSet))
	for r := range rotSet {
		rots = append(rots, r)
	}
	rtks, err := kg.GenRotationKeySet(sk, rots, false)
	if err != nil {
		return false, err
	}

	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk)
	distributed := ckks.NewEvaluator(params, rlk, rtks)
	distributed.SetKeySwitcher(eng)
	local := ckks.NewEvaluator(params, rlk, rtks)

	allPass := true
	rng := rand.New(rand.NewSource(seed))
	for _, name := range names {
		name = strings.TrimSpace(name)
		spec, _ := workloads.ServeWorkloadByName(name)
		v := make([]complex128, params.Slots())
		for i := range v {
			v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		pt, err := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
		if err != nil {
			return false, err
		}
		ct, err := encr.Encrypt(pt)
		if err != nil {
			return false, err
		}

		got, err := spec.Reference(distributed, enc, ct)
		if err != nil {
			return false, fmt.Errorf("%s via cluster: %w", name, err)
		}
		want, err := spec.Reference(local, enc, ct)
		if err != nil {
			return false, fmt.Errorf("%s locally: %w", name, err)
		}
		if bitExact(got, want) {
			log.Printf("PASS %-8s bit-exact across %d workers (level %d->%d)", name, eng.NChips(), params.MaxLevel(), got.Level())
		} else {
			log.Printf("FAIL %-8s distributed result differs from single-process run", name)
			allPass = false
		}
	}

	snap, err := json.Marshal(eng.Snapshot())
	if err != nil {
		return false, err
	}
	fmt.Println(string(snap))
	return allPass, nil
}

func bitExact(a, b *ckks.Ciphertext) bool {
	if a.Scale != b.Scale || len(a.C0.Limbs) != len(b.C0.Limbs) {
		return false
	}
	for j := range a.C0.Limbs {
		for i := range a.C0.Limbs[j] {
			if a.C0.Limbs[j][i] != b.C0.Limbs[j][i] || a.C1.Limbs[j][i] != b.C1.Limbs[j][i] {
				return false
			}
		}
	}
	return true
}

package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/keyswitch"
	"cinnamon/internal/ring"
)

func testParams(t testing.TB) *ckks.Parameters {
	t.Helper()
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     9,
		LogQ:     []int{55, 45, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
		Seed:     777,
	})
	if err != nil {
		t.Fatal(err)
	}
	return params
}

type clusterContext struct {
	params  *ckks.Parameters
	kg      *ckks.KeyGenerator
	sk      *ckks.SecretKey
	rlk     *ckks.EvalKey
	encr    *ckks.Encryptor
	decr    *ckks.Decryptor
	enc     *ckks.Encoder
	dialers []*PipeDialer
	eng     *Engine
}

func newClusterContext(t testing.TB, nWorkers int, opts Options) *clusterContext {
	t.Helper()
	params := testParams(t)
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
	tc := &clusterContext{
		params: params,
		kg:     kg,
		sk:     sk,
		rlk:    rlk,
		encr:   ckks.NewEncryptor(params, pk),
		decr:   ckks.NewDecryptor(params, sk),
		enc:    ckks.NewEncoder(params),
	}
	dialers := make([]Dialer, nWorkers)
	for i := range dialers {
		pd := NewPipeDialer(NewWorker(params))
		tc.dialers = append(tc.dialers, pd)
		dialers[i] = pd
	}
	tc.eng, err = NewEngine(params, dialers, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.eng.Close)
	return tc
}

func (tc *clusterContext) encryptRandom(t testing.TB, seed int64) *ckks.Ciphertext {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	slots := tc.params.Slots()
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	pt, err := tc.enc.Encode(v, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tc.encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestDistributedInputBroadcastBitExact: the distributed Fig. 8b
// collective must reproduce the local keyswitch limb for limb at every
// level, for the relinearization, a rotation and the conjugation key, on
// clusters wide enough that some chips own no limb at low levels — with
// the measured CommStats and transport counters matching the paper's bill.
func TestDistributedInputBroadcastBitExact(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6} {
		tc := newClusterContext(t, n, Options{HeartbeatInterval: time.Hour})
		rtks, err := tc.kg.GenRotationKeySet(tc.sk, []int{1}, true)
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]*ckks.EvalKey{"rlk": tc.rlk, "rot:1": rtks.Keys[1], "conj": rtks.Conj}
		ct := tc.encryptRandom(t, int64(10+n))
		seq := ckks.NewEvaluator(tc.params, nil, nil)
		for l := 0; l <= tc.params.MaxLevel(); l++ {
			c := &ring.Poly{Basis: tc.params.QBasis.Prefix(l + 1), Limbs: ct.C1.Limbs[:l+1], IsNTT: true}
			for name, key := range keys {
				s0, s1, err := seq.KeySwitch(c, key)
				if err != nil {
					t.Fatal(err)
				}
				before := tc.eng.Snapshot()
				d0, d1, stats, err := tc.eng.KeySwitchStats(c, key)
				if err != nil {
					t.Fatalf("n=%d level=%d %s: %v", n, l, name, err)
				}
				if !d0.Equal(s0) || !d1.Equal(s1) {
					t.Fatalf("n=%d level=%d %s: distributed input broadcast differs from the local keyswitch", n, l, name)
				}
				// Chips beyond the level's limb count own nothing and sit
				// out; with every chip active this is the analytic bill.
				active := min(n, l+1)
				want := keyswitch.AnalyticStats(keyswitch.InputBroadcast, l, active, tc.params.PBasis.Len())
				if stats != want {
					t.Fatalf("n=%d level=%d %s: measured %+v, analytic %+v", n, l, name, stats, want)
				}
				after := tc.eng.Snapshot()
				if after.BytesSent == before.BytesSent || after.BytesReceived == before.BytesReceived {
					t.Fatalf("n=%d level=%d %s: transport counted no bytes", n, l, name)
				}
				if after.Broadcasts-before.Broadcasts != 1 {
					t.Fatalf("n=%d level=%d %s: %d broadcasts recorded, want 1", n, l, name, after.Broadcasts-before.Broadcasts)
				}
				if moved := after.LimbsMoved - before.LimbsMoved; moved != int64(want.LimbsMoved) {
					t.Fatalf("n=%d level=%d %s: transport counted %d limbs, analytic %d", n, l, name, moved, want.LimbsMoved)
				}
			}
		}
	}
}

// TestPartitionedKeyRefusedBeforeWire: the cluster runs input broadcast
// only, so a key with a digit partition (GenEvalKeyDigits) fails before
// any key push, limb frame or collective — the wire never sees it.
func TestPartitionedKeyRefusedBeforeWire(t *testing.T) {
	n := 3
	// An hour between heartbeats: no ping may move the byte counters.
	tc := newClusterContext(t, n, Options{HeartbeatInterval: time.Hour})
	r := tc.params.Ring
	s2 := r.NewPoly(tc.params.QPBasis())
	if err := r.MulCoeffs(tc.sk.S, tc.sk.S, s2); err != nil {
		t.Fatal(err)
	}
	rlkMod, err := tc.kg.GenEvalKeyDigits(s2, tc.sk, keyswitch.ModularDigitSets(tc.params, n))
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encryptRandom(t, 20)
	before := tc.eng.Snapshot()
	d0, d1, stats, err := tc.eng.KeySwitchStats(ct.C1, rlkMod)
	if err == nil || !strings.Contains(err.Error(), "digit partition") {
		t.Fatalf("partitioned key: got %v, want a digit-partition refusal", err)
	}
	if d0 != nil || d1 != nil || stats != (keyswitch.CommStats{}) {
		t.Fatalf("refused keyswitch returned results (%v, %v) or stats %+v", d0 != nil, d1 != nil, stats)
	}
	after := tc.eng.Snapshot()
	if after.KeyPushes != 0 || after.Broadcasts != 0 || after.BytesSent != before.BytesSent {
		t.Fatalf("refused keyswitch reached the wire: %d key pushes, %d broadcasts, %d bytes sent", after.KeyPushes, after.Broadcasts, after.BytesSent-before.BytesSent)
	}
}

// TestEvaluatorClusterHook: an Evaluator with the cluster installed as its
// KeySwitcher must produce bit-identical ciphertexts for quartic and
// rotate-and-sum programs.
func TestEvaluatorClusterHook(t *testing.T) {
	tc := newClusterContext(t, 3, Options{})
	rots := []int{1, 2, 4}
	rtks, err := tc.kg.GenRotationKeySet(tc.sk, rots, false)
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encryptRandom(t, 31)

	quartic := func(ev *ckks.Evaluator) (*ckks.Ciphertext, error) {
		sq, err := ev.MulRelin(ct, ct)
		if err != nil {
			return nil, err
		}
		if sq, err = ev.Rescale(sq); err != nil {
			return nil, err
		}
		q, err := ev.MulRelin(sq, sq)
		if err != nil {
			return nil, err
		}
		return ev.Rescale(q)
	}
	rotsum := func(ev *ckks.Evaluator) (*ckks.Ciphertext, error) {
		acc := ct.Copy()
		for _, k := range rots {
			rot, err := ev.Rotate(ct, k)
			if err != nil {
				return nil, err
			}
			if acc, err = ev.Add(acc, rot); err != nil {
				return nil, err
			}
		}
		return acc, nil
	}

	for name, prog := range map[string]func(*ckks.Evaluator) (*ckks.Ciphertext, error){
		"quartic": quartic, "rotsum": rotsum,
	} {
		ref := ckks.NewEvaluator(tc.params, tc.rlk, rtks)
		wantCT, err := prog(ref)
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		clu := ckks.NewEvaluator(tc.params, tc.rlk, rtks)
		clu.SetKeySwitcher(tc.eng)
		gotCT, err := prog(clu)
		if err != nil {
			t.Fatalf("%s cluster: %v", name, err)
		}
		if !gotCT.C0.Equal(wantCT.C0) || !gotCT.C1.Equal(wantCT.C1) || gotCT.Scale != wantCT.Scale {
			t.Fatalf("%s: cluster-evaluated ciphertext differs from single-process", name)
		}
	}
}

// TestWorkerLossFailsTyped: killing a worker mid-run fails the next
// collective with the typed ErrDegraded and no result — never a hang, a
// partial result or a silent single-process keyswitch — and marks the engine
// unhealthy; once the worker is back, the next keyswitch redials, re-pushes
// the key and is bit-exact again.
func TestWorkerLossFailsTyped(t *testing.T) {
	tc := newClusterContext(t, 3, Options{
		RPCTimeout:   2 * time.Second,
		RetryBackoff: time.Millisecond,
	})
	ct := tc.encryptRandom(t, 40)
	seq := ckks.NewEvaluator(tc.params, nil, nil)
	s0, s1, err := seq.KeySwitch(ct.C1, tc.rlk)
	if err != nil {
		t.Fatal(err)
	}
	// Warm run, then crash worker 1 (sessions die, dials refused).
	if _, _, err := tc.eng.KeySwitch(ct.C1, tc.rlk); err != nil {
		t.Fatal(err)
	}
	tc.dialers[1].Kill()
	d0, d1, err := tc.eng.KeySwitch(ct.C1, tc.rlk)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("keyswitch with a dead worker: got %v, want ErrDegraded", err)
	}
	if d0 != nil || d1 != nil {
		t.Fatal("a failed collective returned result polynomials")
	}
	if tc.eng.Healthy() {
		t.Fatal("engine still reports healthy with a dead worker")
	}

	pushesBefore := tc.eng.Snapshot().KeyPushes
	tc.dialers[1].Revive()
	// The link's redial window (a few RetryBackoffs at most) may still be
	// closed right after the revive; the first keyswitch past it reconnects.
	deadline := time.Now().Add(5 * time.Second)
	for {
		d0, d1, err = tc.eng.KeySwitch(ct.C1, tc.rlk)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrDegraded) || time.Now().After(deadline) {
			t.Fatalf("keyswitch after revive: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if !d0.Equal(s0) || !d1.Equal(s1) {
		t.Fatal("post-revive keyswitch differs from sequential")
	}
	snap := tc.eng.Snapshot()
	if snap.Reconnects < 1 || snap.KeyPushes <= pushesBefore {
		t.Fatalf("expected a redial and a key re-push after revive: %+v", snap)
	}
	if !tc.eng.Healthy() {
		t.Fatal("engine not healthy after the worker came back")
	}
}

// TestReconnectRepushesKeys: after a worker comes back, the next RPC
// redials, re-handshakes, and lazily re-pushes the evaluation key (the
// restarted process lost its key store).
func TestReconnectRepushesKeys(t *testing.T) {
	tc := newClusterContext(t, 2, Options{
		RPCTimeout:   2 * time.Second,
		RetryBackoff: time.Millisecond,
	})
	ct := tc.encryptRandom(t, 50)
	if _, _, err := tc.eng.KeySwitch(ct.C1, tc.rlk); err != nil {
		t.Fatal(err)
	}
	pushesBefore := tc.eng.Snapshot().KeyPushes
	tc.dialers[0].Kill()
	tc.dialers[0].Revive()

	seq := ckks.NewEvaluator(tc.params, nil, nil)
	s0, s1, err := seq.KeySwitch(ct.C1, tc.rlk)
	if err != nil {
		t.Fatal(err)
	}
	d0, d1, err := tc.eng.KeySwitch(ct.C1, tc.rlk)
	if err != nil {
		t.Fatal(err)
	}
	if !d0.Equal(s0) || !d1.Equal(s1) {
		t.Fatal("post-reconnect keyswitch differs from sequential")
	}
	snap := tc.eng.Snapshot()
	if snap.Reconnects < 1 {
		t.Fatalf("expected a reconnect, counted %d", snap.Reconnects)
	}
	if snap.KeyPushes <= pushesBefore {
		t.Fatalf("expected a key re-push after reconnect (%d before, %d after)", pushesBefore, snap.KeyPushes)
	}
	if !tc.eng.Healthy() {
		t.Fatal("engine not healthy after reconnect")
	}
}

// TestHeartbeatRedialsLostWorker: the background loop restores a revived
// worker without any request traffic.
func TestHeartbeatRedialsLostWorker(t *testing.T) {
	tc := newClusterContext(t, 2, Options{
		RPCTimeout:        2 * time.Second,
		RetryBackoff:      time.Millisecond,
		HeartbeatInterval: 5 * time.Millisecond,
	})
	ct := tc.encryptRandom(t, 60)
	if _, _, err := tc.eng.KeySwitch(ct.C1, tc.rlk); err != nil {
		t.Fatal(err)
	}
	tc.dialers[1].Kill()
	// Force the engine to notice (the next collective fails typed).
	if _, _, err := tc.eng.KeySwitch(ct.C1, tc.rlk); !errors.Is(err, ErrDegraded) {
		t.Fatalf("keyswitch with a dead worker: got %v, want ErrDegraded", err)
	}
	tc.dialers[1].Revive()
	deadline := time.Now().Add(5 * time.Second)
	for !tc.eng.Healthy() {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never restored the worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tc.eng.Snapshot().Heartbeats == 0 {
		t.Fatal("no heartbeats recorded")
	}
}

// TestDegradedStartRecovers: with AllowDegradedStart a coordinator boots
// while a worker is unreachable (the exact shape of a restart during a
// failure-domain outage) and the heartbeat loop folds the worker back in
// once it returns; without the option the same boot must still fail hard.
func TestDegradedStartRecovers(t *testing.T) {
	params := testParams(t)
	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	dialers := []*PipeDialer{NewPipeDialer(NewWorker(params)), NewPipeDialer(NewWorker(params))}
	dialers[0].Kill()

	if _, err := NewEngine(params, []Dialer{dialers[0], dialers[1]}, Options{}); err == nil {
		t.Fatal("strict startup should fail with a dead worker")
	}

	opts := Options{
		RPCTimeout:         2 * time.Second,
		RetryBackoff:       time.Millisecond,
		HeartbeatInterval:  5 * time.Millisecond,
		AllowDegradedStart: true,
	}
	eng, err := NewEngine(params, []Dialer{dialers[0], dialers[1]}, opts)
	if err != nil {
		t.Fatalf("degraded start should succeed: %v", err)
	}
	defer eng.Close()
	if got := eng.HealthyWorkers(); got != 1 {
		t.Fatalf("expected 1 healthy worker after degraded boot, got %d", got)
	}

	dialers[0].Revive()
	deadline := time.Now().Add(5 * time.Second)
	for !eng.Healthy() {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never recovered the degraded-start worker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The recovered cluster must still be bit-exact against the
	// sequential path.
	enc := ckks.NewEncoder(params)
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := enc.Encode(make([]complex128, params.Slots()), params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ckks.NewEncryptor(params, pk).Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	seq := ckks.NewEvaluator(params, nil, nil)
	s0, s1, err := seq.KeySwitch(ct.C1, rlk)
	if err != nil {
		t.Fatal(err)
	}
	d0, d1, err := eng.KeySwitch(ct.C1, rlk)
	if err != nil {
		t.Fatal(err)
	}
	if !d0.Equal(s0) || !d1.Equal(s1) {
		t.Fatal("post-recovery keyswitch differs from sequential")
	}
}

// TestHandshakeDigestMismatch: a worker on different parameters must be
// refused at construction.
func TestHandshakeDigestMismatch(t *testing.T) {
	params := testParams(t)
	other, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     9,
		LogQ:     []int{55, 45, 45, 45}, // one level short: different chain
		LogP:     []int{58, 58},
		LogScale: 45,
		Seed:     777,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ParamsDigest(params) == ParamsDigest(other) {
		t.Fatal("digests should differ for different chains")
	}
	_, err = NewEngine(params, []Dialer{NewPipeDialer(NewWorker(other))}, Options{})
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("expected ErrDigestMismatch, got %v", err)
	}
	// A degraded start tolerates unreachable workers only: a worker that
	// answers on other parameters would sit "down" behind the heartbeat
	// forever, so it fails construction all the same.
	dead := NewPipeDialer(NewWorker(params))
	dead.Kill()
	eng, err := NewEngine(params, []Dialer{dead, NewPipeDialer(NewWorker(other))}, Options{AllowDegradedStart: true})
	if !errors.Is(err, ErrDigestMismatch) {
		if eng != nil {
			eng.Close()
		}
		t.Fatalf("degraded start with a wrong-parameter worker: got %v, want ErrDigestMismatch", err)
	}
}

// TestLoopbackTCP runs one bit-exactness pass over real TCP sockets on
// localhost (skipped under -short so sandboxed tier-1 runs stay
// socket-free).
func TestLoopbackTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP exercised only in full (non-short) runs")
	}
	params := testParams(t)
	nWorkers := 3
	dialers := make([]Dialer, nWorkers)
	for i := 0; i < nWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback listen unavailable: %v", err)
		}
		defer ln.Close()
		w := NewWorker(params)
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go w.Serve(conn)
			}
		}()
		dialers[i] = TCPDialer{Addr: ln.Addr().String()}
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
	eng, err := NewEngine(params, dialers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	enc := ckks.NewEncoder(params)
	v := make([]complex128, params.Slots())
	for i := range v {
		v[i] = complex(float64(i%7)/7, 0)
	}
	pt, err := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ckks.NewEncryptor(params, pk).Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	seq := ckks.NewEvaluator(params, nil, nil)
	s0, s1, err := seq.KeySwitch(ct.C1, rlk)
	if err != nil {
		t.Fatal(err)
	}
	d0, d1, err := eng.KeySwitch(ct.C1, rlk)
	if err != nil {
		t.Fatal(err)
	}
	if !d0.Equal(s0) || !d1.Equal(s1) {
		t.Fatal("TCP-distributed keyswitch differs from sequential")
	}
	if snap := eng.Snapshot(); snap.BytesSent == 0 {
		t.Fatal("TCP transport counted no bytes")
	}
}

// TestEvictKeysInvalidatesWorkers: a coordinator-side eviction (the serve
// registry's budgeted key cache dropping a tenant) must invalidate worker
// residency — the next keyswitch re-pushes fresh key material and still
// matches the sequential reference bit for bit.
func TestEvictKeysInvalidatesWorkers(t *testing.T) {
	tc := newClusterContext(t, 2, Options{
		RPCTimeout:   2 * time.Second,
		RetryBackoff: time.Millisecond,
	})
	ct := tc.encryptRandom(t, 70)
	if _, _, err := tc.eng.KeySwitch(ct.C1, tc.rlk); err != nil {
		t.Fatal(err)
	}
	pushesBefore := tc.eng.Snapshot().KeyPushes

	tc.eng.EvictKeys(tc.rlk)
	snap := tc.eng.Snapshot()
	if snap.KeyEvicts < 1 {
		t.Fatalf("EvictKeys counted %d evicts, want >= 1", snap.KeyEvicts)
	}

	seq := ckks.NewEvaluator(tc.params, nil, nil)
	s0, s1, err := seq.KeySwitch(ct.C1, tc.rlk)
	if err != nil {
		t.Fatal(err)
	}
	d0, d1, err := tc.eng.KeySwitch(ct.C1, tc.rlk)
	if err != nil {
		t.Fatal(err)
	}
	if !d0.Equal(s0) || !d1.Equal(s1) {
		t.Fatal("post-evict keyswitch differs from sequential")
	}
	snap = tc.eng.Snapshot()
	if snap.KeyPushes <= pushesBefore {
		t.Fatalf("expected a key re-push after eviction (%d before, %d after)", pushesBefore, snap.KeyPushes)
	}
	if !tc.eng.Healthy() {
		t.Fatal("engine not healthy after evict + re-push")
	}
	// Evicting a key the engine no longer tracks is a no-op, not an error.
	tc.eng.EvictKeys(tc.rlk)
}

// TestUnknownKeyRejectedInBand: a worker drops a key only when the
// coordinator evicts it, so a keyswitch naming a key the worker never
// received is a protocol error. The worker answers it in band with msgError:
// the collective fails typed and the session survives.
func TestUnknownKeyRejectedInBand(t *testing.T) {
	tc := newClusterContext(t, 2, Options{
		RPCTimeout:   2 * time.Second,
		RetryBackoff: time.Millisecond,
	})
	ct := tc.encryptRandom(t, 88)
	id := tc.eng.keyID(tc.rlk)
	for _, lk := range tc.eng.links {
		lk.mu.Lock()
		lk.pushed[id] = true // believed pushed, never sent
		lk.mu.Unlock()
	}
	_, _, err := tc.eng.KeySwitch(ct.C1, tc.rlk)
	if !errors.Is(err, ErrDegraded) || !strings.Contains(err.Error(), "unknown key id") {
		t.Fatalf("keyswitch on a key the workers never received: got %v, want ErrDegraded naming the unknown key", err)
	}
	if snap := tc.eng.Snapshot(); snap.Reconnects != 0 || !tc.eng.Healthy() {
		t.Fatalf("an in-band rejection dropped a session: %d reconnects, healthy=%v", snap.Reconnects, tc.eng.Healthy())
	}
}

// TestConcurrentEvictKeySwitchStress hammers EvictKeys against a stream of
// keyswitches. A keyswitch names and pushes its key under the link lock, so
// an eviction either finishes on that link first (the key gets a fresh id
// and is pushed again) or waits for the keyswitch — never a clean session
// dropped: any reconnect or failed collective here is a regression (the
// loop below stops at the first error).
func TestConcurrentEvictKeySwitchStress(t *testing.T) {
	tc := newClusterContext(t, 2, Options{
		RPCTimeout:   5 * time.Second,
		RetryBackoff: time.Millisecond,
	})
	ct := tc.encryptRandom(t, 99)
	seq := ckks.NewEvaluator(tc.params, nil, nil)
	s0, s1, err := seq.KeySwitch(ct.C1, tc.rlk)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tc.eng.EvictKeys(tc.rlk)
			}
		}
	}()
	iters := 200
	if testing.Short() {
		iters = 50
	}
	for i := 0; i < iters; i++ {
		d0, d1, err := tc.eng.KeySwitch(ct.C1, tc.rlk)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if !d0.Equal(s0) || !d1.Equal(s1) {
			t.Fatalf("iter %d: result differs from sequential under eviction churn", i)
		}
	}
	close(stop)
	wg.Wait()
	snap := tc.eng.Snapshot()
	if snap.Reconnects != 0 {
		t.Fatalf("eviction churn dropped sessions: %d reconnects (stress snapshot %+v)", snap.Reconnects, snap)
	}
	if snap.KeyEvicts < 1 {
		t.Fatal("stress loop never actually evicted")
	}
	if !tc.eng.Healthy() {
		t.Fatal("engine unhealthy after eviction churn")
	}
}

// dupConn delivers twice the first frame of type typ written after arm is
// set. Writes are queued and pumped by a goroutine — like a socket
// buffer, and unlike a bare net.Pipe, whose lock-step writes would stall
// the duplicate into an RPC timeout instead of delivering it.
type dupConn struct {
	net.Conn
	typ  byte
	arm  *atomic.Bool
	q    chan []byte
	done chan struct{}
	once sync.Once
}

func newDupConn(conn net.Conn, typ byte, arm *atomic.Bool) *dupConn {
	dc := &dupConn{Conn: conn, typ: typ, arm: arm, done: make(chan struct{})}
	dc.q = make(chan []byte, 64) // deeper than one keyswitch's frames
	go func() {
		for {
			select {
			case b := <-dc.q:
				if _, err := conn.Write(b); err != nil {
					return
				}
			case <-dc.done:
				return
			}
		}
	}()
	return dc
}

func (c *dupConn) Write(p []byte) (int, error) {
	n := 1
	if len(p) > 4 && p[4] == c.typ && c.arm.CompareAndSwap(true, false) {
		n = 2
	}
	for ; n > 0; n-- {
		select {
		case c.q <- append([]byte(nil), p...):
		case <-c.done:
			return 0, net.ErrClosed
		}
	}
	return len(p), nil
}

func (c *dupConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return c.Conn.Close()
}

// dupDialer duplicates one coordinator request frame of type typ.
type dupDialer struct {
	Dialer
	typ byte
	arm *atomic.Bool
}

func (d dupDialer) Dial(ctx context.Context) (net.Conn, error) {
	conn, err := d.Dialer.Dial(ctx)
	if err != nil {
		return nil, err
	}
	return newDupConn(conn, d.typ, d.arm), nil
}

// dupReplyDialer serves a real Worker whose conn duplicates one reply
// frame of type typ.
type dupReplyDialer struct {
	w   *Worker
	typ byte
	arm *atomic.Bool
}

func (d dupReplyDialer) Dial(context.Context) (net.Conn, error) {
	coord, worker := net.Pipe()
	go d.w.Serve(newDupConn(worker, d.typ, d.arm))
	return coord, nil
}

// TestDuplicatedDigitFrameRejected: a digit frame delivered twice must not
// be absorbed twice — that would reach the announced frame count with one
// digit doubled and one missing, and ship a wrong result under a valid CRC
// and request id. The worker rejects it, and the rejection surfaces as
// ErrDegraded with no result polynomials.
func TestDuplicatedDigitFrameRejected(t *testing.T) {
	tc := newClusterContext(t, 1, Options{}) // keys, encryptor; its engine is unused
	var arm atomic.Bool
	ds := make([]Dialer, 2)
	for i := range ds {
		ds[i] = dupDialer{Dialer: NewPipeDialer(NewWorker(tc.params)), typ: msgLimbs, arm: &arm}
	}
	eng, err := NewEngine(tc.params, ds, Options{RPCTimeout: 2 * time.Second, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ct := tc.encryptRandom(t, 77)
	// Warm: push the key, so the first write after arming is the digit stream.
	if _, _, err := eng.KeySwitch(ct.C1, tc.rlk); err != nil {
		t.Fatal(err)
	}
	arm.Store(true)
	d0, d1, err := eng.KeySwitch(ct.C1, tc.rlk)
	if arm.Load() {
		t.Fatal("no digit frame was duplicated")
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("keyswitch with a duplicated digit frame: got %v, want ErrDegraded (the worker must reject the collective)", err)
	}
	if d0 != nil || d1 != nil {
		t.Fatal("a rejected collective returned result polynomials")
	}
}

// TestStaleReplySkipped: a reply delivered twice — the chaos injector's
// receive-side Duplicate — is stale once its exchange is settled. Every
// reply leads with the id it answers and no id names two exchanges, so
// whichever exchange reads the duplicate next skips it instead of failing
// and dropping a healthy session.
func TestStaleReplySkipped(t *testing.T) {
	tc := newClusterContext(t, 1, Options{}) // params and keys; its engine is unused
	ct := tc.encryptRandom(t, 66)
	locked := func(e *Engine, f func(lk *link) error) error {
		lk := e.links[0]
		lk.mu.Lock()
		defer lk.mu.Unlock()
		return f(lk)
	}
	ping := func(e *Engine) error {
		return locked(e, func(lk *link) error {
			nonce := e.ids.Add(1)
			_, err := lk.call(time.Now().Add(2*time.Second), nonce, msgPong, msgPing, appendU64(nil, nonce), nil)
			return err
		})
	}
	push := func(e *Engine) error {
		return locked(e, func(lk *link) error {
			return lk.ensureKey(time.Now().Add(2*time.Second), e.keyID(tc.rlk), tc.rlk)
		})
	}
	evict := func(e *Engine) error {
		e.EvictKeys(tc.rlk)
		return nil
	}
	pushEvict := func(e *Engine) error {
		if err := push(e); err != nil {
			return err
		}
		return evict(e)
	}
	keySwitch := func(e *Engine) error {
		_, _, err := e.KeySwitch(ct.C1, tc.rlk)
		return err
	}
	// refused runs a keyswitch the worker answers with msgError: it names
	// a key believed pushed but never sent.
	refused := func(e *Engine) error {
		locked(e, func(lk *link) error {
			lk.pushed[e.keyID(tc.rlk)] = true
			return nil
		})
		if err := keySwitch(e); !errors.Is(err, ErrDegraded) || !strings.Contains(err.Error(), "unknown key id") {
			return fmt.Errorf("got %v, want an in-band refusal", err)
		}
		return nil
	}
	for _, row := range []struct {
		name        string
		dup         byte
		first, next func(*Engine) error
	}{
		{"pong read by a key push", msgPong, ping, push},
		{"keyAck read by a keyswitch", msgKeyAck, push, keySwitch},
		{"keyAck read by the evict of its key", msgKeyAck, push, evict},
		{"keyGone read by a key push", msgKeyGone, pushEvict, push},
		{"ksResult read by a heartbeat", msgKSResult, keySwitch, ping},
		{"msgError read by a heartbeat", msgError, refused, ping},
	} {
		t.Run(row.name, func(t *testing.T) {
			var arm atomic.Bool
			// An hour between heartbeats: the rows send their pings themselves.
			eng, err := NewEngine(tc.params, []Dialer{dupReplyDialer{w: NewWorker(tc.params), typ: row.dup, arm: &arm}}, Options{
				RPCTimeout: 2 * time.Second, RetryBackoff: time.Millisecond, HeartbeatInterval: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			arm.Store(true)
			if err := row.first(eng); err != nil {
				t.Fatalf("first exchange: %v", err)
			}
			if arm.Load() {
				t.Fatalf("no %#x reply was duplicated", row.dup)
			}
			if err := row.next(eng); err != nil {
				t.Fatalf("exchange after a doubled %#x: %v", row.dup, err)
			}
			if n := eng.Snapshot().Reconnects; n != 0 || !eng.Healthy() {
				t.Fatalf("a stale %#x cost %d reconnects (healthy=%v), want 0", row.dup, n, eng.Healthy())
			}
		})
	}
}

// TestWorkerRefusalNotDegraded: a key with fewer digits than the level
// needs is refused by every worker's keyswitch plan in band. That is the
// request's error — the local keyswitch refuses it too — so the collective
// returns the workers' refusal as itself, not as ErrDegraded, and both
// sessions stay up.
func TestWorkerRefusalNotDegraded(t *testing.T) {
	tc := newClusterContext(t, 2, Options{RPCTimeout: 2 * time.Second, RetryBackoff: time.Millisecond})
	ct := tc.encryptRandom(t, 91)
	if tc.rlk.Digits() < 2 {
		t.Fatalf("test parameters give the relinearization key %d digits; need 2 or more", tc.rlk.Digits())
	}
	short := &ckks.EvalKey{B: tc.rlk.B[:1], A: tc.rlk.A[:1]}
	if got := tc.eng.HealthyWorkers(); got != 2 {
		t.Fatalf("healthy workers before: %d, want 2", got)
	}
	d0, d1, err := tc.eng.KeySwitch(ct.C1, short)
	if err == nil || d0 != nil || d1 != nil {
		t.Fatalf("keyswitch under a short key: got (%v, %v, %v), want a refusal and no result", d0, d1, err)
	}
	if errors.Is(err, ErrDegraded) {
		t.Fatalf("a worker's refusal of the key was reported as a lost worker: %v", err)
	}
	if !errors.Is(err, ckks.ErrNoKeySwitchPlan) || !strings.Contains(err.Error(), "worker reported") || !strings.Contains(err.Error(), "digits") {
		t.Fatalf("keyswitch under a short key: got %v, want the worker's ErrNoKeySwitchPlan message", err)
	}
	if got := tc.eng.HealthyWorkers(); got != 2 {
		t.Fatalf("healthy workers after a refusal: %d, want 2", got)
	}
	if snap := tc.eng.Snapshot(); snap.Reconnects != 0 {
		t.Fatalf("a refusal dropped a session: %d reconnects", snap.Reconnects)
	}
	tc.eng.EvictKeys(short)

	// A worker sends a refusal back as its text alone, so every refusal
	// KSPlan.Start can give must still read as one on the coordinator's
	// side. A custom digit partition never reaches a worker (the engine
	// refuses it before the broadcast), but a worker's plan refuses it too.
	pl, err := tc.params.KSPlanAtLevel(tc.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	for name, evk := range map[string]*ckks.EvalKey{
		"short key":              short,
		"custom digit partition": {B: tc.rlk.B, A: tc.rlk.A, DigitSets: [][]int{{0}}},
		"no digits":              {},
	} {
		_, serr := pl.Start(evk)
		if !errors.Is(serr, ckks.ErrNoKeySwitchPlan) {
			t.Fatalf("%s: KSPlan.Start gave %v, want ErrNoKeySwitchPlan", name, serr)
		}
		rerr := lostWorker(context.Background(), []error{nil, &remoteError{msg: serr.Error()}})
		if errors.Is(rerr, ErrDegraded) || !errors.Is(rerr, ckks.ErrNoKeySwitchPlan) {
			t.Fatalf("%s: a worker's refusal %q came back as %v, want ErrNoKeySwitchPlan and not ErrDegraded", name, serr, rerr)
		}
	}
	custom := &ckks.EvalKey{B: tc.rlk.B, A: tc.rlk.A, DigitSets: [][]int{{0}}}
	if _, _, err := tc.eng.KeySwitch(ct.C1, custom); err == nil || errors.Is(err, ErrDegraded) {
		t.Fatalf("keyswitch under a custom-partition key: got %v, want a refusal that is not ErrDegraded", err)
	}
	if got := tc.eng.HealthyWorkers(); got != 2 {
		t.Fatalf("healthy workers after the custom-partition refusal: %d, want 2", got)
	}
}

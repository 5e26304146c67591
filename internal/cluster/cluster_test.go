package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/keyswitch"
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
// collective must reproduce both the in-process input broadcast AND the
// sequential reference limb-for-limb, with the measured CommStats matching
// the paper's analytic bill.
func TestDistributedInputBroadcastBitExact(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		tc := newClusterContext(t, n, Options{})
		ct := tc.encryptRandom(t, int64(10+n))
		l := ct.Level()

		seq := ckks.NewEvaluator(tc.params, nil, nil)
		s0, s1, err := seq.KeySwitch(ct.C1, tc.rlk)
		if err != nil {
			t.Fatal(err)
		}
		d0, d1, stats, err := tc.eng.KeySwitchStats(ct.C1, tc.rlk)
		if err != nil {
			t.Fatal(err)
		}
		if !d0.Equal(s0) || !d1.Equal(s1) {
			t.Fatalf("n=%d: distributed input broadcast differs from sequential", n)
		}
		want := keyswitch.AnalyticStats(keyswitch.InputBroadcast, l, n, tc.params.PBasis.Len())
		if stats != want {
			t.Fatalf("n=%d: measured %+v, analytic %+v", n, stats, want)
		}
		snap := tc.eng.Snapshot()
		if n > 0 && (snap.BytesSent == 0 || snap.BytesReceived == 0) {
			t.Fatalf("n=%d: transport counted no bytes: %+v", n, snap)
		}
		if snap.Broadcasts != 1 {
			t.Fatalf("n=%d: %d broadcasts recorded, want 1", n, snap.Broadcasts)
		}
		if snap.LimbsMoved != int64(want.LimbsMoved) {
			t.Fatalf("n=%d: transport counted %d limbs, analytic %d", n, snap.LimbsMoved, want.LimbsMoved)
		}
	}
}

// TestDistributedOutputAggregationBitExact: the distributed Fig. 8c
// collective must agree with the in-process engine (identical ChipOA
// kernels, same aggregation order) bit for bit.
func TestDistributedOutputAggregationBitExact(t *testing.T) {
	n := 3
	tc := newClusterContext(t, n, Options{})
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
	l := ct.Level()

	localEng, err := keyswitch.NewEngine(tc.params, n)
	if err != nil {
		t.Fatal(err)
	}
	l0, l1, _, err := localEng.KeySwitch(ct.C1, rlkMod, keyswitch.OutputAggregation)
	if err != nil {
		t.Fatal(err)
	}
	d0, d1, stats, err := tc.eng.KeySwitchStats(ct.C1, rlkMod)
	if err != nil {
		t.Fatal(err)
	}
	if !d0.Equal(l0) || !d1.Equal(l1) {
		t.Fatal("distributed output aggregation differs from in-process engine")
	}
	want := keyswitch.AnalyticStats(keyswitch.OutputAggregation, l, n, tc.params.PBasis.Len())
	if stats != want {
		t.Fatalf("measured %+v, analytic %+v", stats, want)
	}
	if snap := tc.eng.Snapshot(); snap.Aggregations != 2 {
		t.Fatalf("%d aggregations recorded, want 2", snap.Aggregations)
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

// TestWorkerKeyBudgetForcesRepush: a worker under its own key budget drops
// LRU keys on its side; the coordinator still believes them pushed, so the
// next keyswitch using a dropped key gets an in-band key-gone answer and
// must transparently re-push on the same session — no reconnect, same bits.
func TestWorkerKeyBudgetForcesRepush(t *testing.T) {
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
	k1, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	// A 1-byte budget means any second key exceeds it: the worker always
	// holds exactly the most recently pushed key (the livelock guard keeps
	// that one resident no matter how small the budget is).
	dialers := make([]Dialer, 2)
	for i := range dialers {
		w := NewWorker(params)
		w.KeyBudgetBytes = 1
		dialers[i] = NewPipeDialer(w)
	}
	eng, err := NewEngine(params, dialers, Options{
		RPCTimeout:   2 * time.Second,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	enc := ckks.NewEncoder(params)
	v := make([]complex128, params.Slots())
	for i := range v {
		v[i] = complex(float64(i%5)/5-0.4, float64(i%3)/3-0.3)
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
	check := func(step string, key *ckks.EvalKey) {
		t.Helper()
		s0, s1, err := seq.KeySwitch(ct.C1, key)
		if err != nil {
			t.Fatal(err)
		}
		d0, d1, err := eng.KeySwitch(ct.C1, key)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if !d0.Equal(s0) || !d1.Equal(s1) {
			t.Fatalf("%s: distributed keyswitch differs from sequential", step)
		}
	}
	check("first key", k1)
	check("second key (worker drops first)", k2)
	// k1 is gone worker-side but the coordinator's session still marks it
	// pushed: this call must ride the key-gone -> re-push path.
	check("first key again (re-push)", k1)

	snap := eng.Snapshot()
	if snap.KeyRepushes < 1 {
		t.Fatalf("budgeted worker never forced a re-push: %+v", snap)
	}
	if snap.Reconnects != 0 {
		t.Fatalf("re-push should ride the live session, counted %d reconnects", snap.Reconnects)
	}
	if !eng.Healthy() {
		t.Fatal("engine not healthy after budget-forced re-push")
	}
}

// TestConcurrentEvictKeySwitchStress hammers EvictKeys against a stream of
// keyswitches. The eviction race (encoding erased between a collective's
// id resolution and the lazy push) must be absorbed by re-resolving a
// fresh id — never by dropping a clean session: any reconnect or failed
// collective here is a regression (the loop below stops at the first error).
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

// dupLimbsDialer wraps a dialer so the first msgLimbs frame written after
// arm is set goes out twice. Writes are queued and pumped by a goroutine —
// like a socket buffer, and unlike a bare net.Pipe, whose lock-step writes
// would stall the duplicate into an RPC timeout instead of delivering it.
type dupLimbsDialer struct {
	Dialer
	arm *atomic.Bool
}

func (d dupLimbsDialer) Dial(ctx context.Context) (net.Conn, error) {
	conn, err := d.Dialer.Dial(ctx)
	if err != nil {
		return nil, err
	}
	dc := &dupLimbsConn{Conn: conn, arm: d.arm, done: make(chan struct{})}
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
	return dc, nil
}

type dupLimbsConn struct {
	net.Conn
	arm  *atomic.Bool
	q    chan []byte
	done chan struct{}
	once sync.Once
}

func (c *dupLimbsConn) Write(p []byte) (int, error) {
	n := 1
	if len(p) > 4 && p[4] == msgLimbs && c.arm.CompareAndSwap(true, false) {
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

func (c *dupLimbsConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return c.Conn.Close()
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
		ds[i] = dupLimbsDialer{Dialer: NewPipeDialer(NewWorker(tc.params)), arm: &arm}
	}
	eng, err := NewEngine(tc.params, ds, Options{RPCTimeout: 2 * time.Second, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ct := tc.encryptRandom(t, 77)
	if err := eng.EnsureKeys(tc.rlk); err != nil {
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

// countingDialer counts Dial calls through to the wrapped dialer.
type countingDialer struct {
	Dialer
	dials atomic.Int64
}

func (d *countingDialer) Dial(ctx context.Context) (net.Conn, error) {
	d.dials.Add(1)
	return d.Dialer.Dial(ctx)
}

// TestEnsureKeysRespectsRedialWindow: EnsureKeys dials a down link through
// the same jittered redial gate as the heartbeat and RPC retries — inside
// the link's window it fails at once without a Dial, even though a dial
// would now succeed — so a dead worker is dialed on one schedule, not two.
func TestEnsureKeysRespectsRedialWindow(t *testing.T) {
	tc := newClusterContext(t, 1, Options{}) // keys; its engine is unused
	pd := NewPipeDialer(NewWorker(tc.params))
	pd.Kill()
	cd := &countingDialer{Dialer: pd}
	// The failed boot dial opens a window of RetryBackoff jittered into
	// [0.5, 1]× — at least 30s here — and an hour between heartbeats keeps
	// the heartbeat from dialing at all.
	eng, err := NewEngine(tc.params, []Dialer{cd}, Options{
		RetryBackoff:       time.Minute,
		HeartbeatInterval:  time.Hour,
		AllowDegradedStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if n := cd.dials.Load(); n != 1 {
		t.Fatalf("boot made %d dials, want 1", n)
	}
	pd.Revive()
	start := time.Now()
	err = eng.EnsureKeys(tc.rlk)
	if !errors.Is(err, errRedialBackoff) {
		t.Fatalf("EnsureKeys inside the redial window: got %v, want errRedialBackoff", err)
	}
	if n := cd.dials.Load() - 1; n != 0 {
		t.Fatalf("EnsureKeys inside the redial window made %d dials, want 0", n)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("EnsureKeys inside the redial window took %v, want an immediate return", d)
	}
	if eng.Healthy() {
		t.Fatal("link came up inside its redial window")
	}
}

// connDialer hands out one pre-made connection.
type connDialer struct{ conn net.Conn }

func (d connDialer) Dial(context.Context) (net.Conn, error) { return d.conn, nil }

// TestStalePongSkipped: a pong delivered twice — the chaos injector's
// receive-side Duplicate — is stale once its ping is answered. The next
// exchange on the link, here a first-time key push, must skip it rather
// than fail and drop a healthy session.
func TestStalePongSkipped(t *testing.T) {
	tc := newClusterContext(t, 1, Options{}) // params and keys; its engine is unused
	coord, worker := net.Pipe()
	t.Cleanup(func() { worker.Close() })
	errc := make(chan error, 1)
	go func() {
		errc <- func() error {
			br, bw := bufio.NewReader(worker), bufio.NewWriter(worker)
			expect := func(want byte) ([]byte, error) {
				typ, payload, err := ReadFrame(br)
				if err == nil && typ != want {
					err = fmt.Errorf("got frame %#x, want %#x", typ, want)
				}
				return payload, err
			}
			reply := func(typ byte, payloads ...[]byte) error {
				for _, p := range payloads {
					if err := WriteFrame(bw, typ, p); err != nil {
						return err
					}
				}
				return bw.Flush()
			}
			if _, err := expect(msgHello); err != nil {
				return err
			}
			if err := reply(msgHelloAck, encodeHelloAck(ParamsDigest(tc.params))); err != nil {
				return err
			}
			ping, err := expect(msgPing)
			if err != nil {
				return err
			}
			// Both pongs in one write: a net.Pipe write blocks until read,
			// and the second must already be waiting when the push is sent.
			if err := reply(msgPong, ping, ping); err != nil {
				return err
			}
			push, err := expect(msgSetKey)
			if err != nil {
				return err
			}
			id, _, err := decodeSetKey(push, tc.params)
			if err != nil {
				return err
			}
			return reply(msgKeyAck, encodeKeyAck(id))
		}()
	}()

	// An hour between heartbeats: the test sends the one ping itself.
	eng, err := NewEngine(tc.params, []Dialer{connDialer{coord}}, Options{HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	lk := eng.links[0]
	lk.mu.Lock()
	err = lk.ping(eng)
	lk.mu.Unlock()
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := eng.EnsureKeys(tc.rlk); err != nil {
		t.Fatalf("key push after a doubled pong: %v", err)
	}
	if n := eng.Snapshot().Reconnects; n != 0 {
		t.Fatalf("a stale pong cost %d reconnects, want 0", n)
	}
	if err := <-errc; err != nil {
		t.Fatalf("fake worker: %v", err)
	}
}

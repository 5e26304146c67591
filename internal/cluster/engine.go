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
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/keyswitch"
	"cinnamon/internal/ring"
)

// ErrDegraded is returned (wrapped) when a collective loses a worker — a
// transport error that outlives the one in-line retry, or a worker's in-band
// rejection: the caller gets a clean typed failure instead of a hang or a
// partial result. The engine never computes a keyswitch itself; what to do
// about a lost worker (fail over, replay locally, give up) is the caller's
// decision — internal/serve's Core.execute makes it.
var ErrDegraded = errors.New("cluster: degraded")

// rpcRetries is how many times a failed per-worker RPC is redialed and
// retried in line before its collective fails with ErrDegraded.
const rpcRetries = 1

// Options tunes the coordinator's production behaviour.
type Options struct {
	// RPCTimeout bounds one collective round trip per worker (handshake,
	// key push, keyswitch). Default 30s.
	RPCTimeout time.Duration
	// DialTimeout bounds one connection attempt. Default 5s.
	DialTimeout time.Duration
	// RetryBackoff is the pause before a failed per-worker RPC's one redial
	// and retry. Default 100ms.
	RetryBackoff time.Duration
	// HeartbeatInterval paces the background ping loop that detects dead
	// workers early and redials lost ones — the only thing that brings a
	// lost worker back without request traffic, so it is always on. It
	// also caps the redial backoff at max(1s, 4×HeartbeatInterval).
	// Default 1s.
	HeartbeatInterval time.Duration
	// AllowDegradedStart lets NewEngine succeed even when some (or all)
	// workers are unreachable at boot: a failed initial dial leaves that
	// link down — to be redialed with backoff by the heartbeat loop and RPC
	// retries — instead of failing construction. A worker that answers with
	// a different parameter digest (ErrDigestMismatch) fails construction
	// regardless. Meant for coordinators fronting several failure domains,
	// where a restart must not be held hostage by one dead backend.
	AllowDegradedStart bool
}

func (o Options) withDefaults() Options {
	if o.RPCTimeout <= 0 {
		o.RPCTimeout = 30 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Millisecond
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	return o
}

// Engine is the coordinator of the scale-out runtime: it holds one session
// per worker process (one per paper chip), partitions every keyswitch
// across them and implements ckks.KeySwitcher, so an Evaluator with
// SetKeySwitcher(engine) transparently executes all relinearizations and
// rotations over the cluster.
type Engine struct {
	params *ckks.Parameters
	opts   Options
	links  []*link
	stats  Stats

	// keyIDs names each key by pointer for the wire: a push encodes the
	// *EvalKey the collective holds, and EvictKeys forgets the name, so a
	// later push of the same pointer gets a fresh id.
	keyMu  sync.Mutex
	keyIDs map[*ckks.EvalKey]uint64

	// ids is the one id sequence of the engine's exchanges: key ids,
	// keyswitch request ids and heartbeat nonces all come from it, so an id
	// names one exchange and a reply leading with another id is stale.
	ids atomic.Uint64

	// lastHandshake is the unix-nano time of the most recent successful
	// worker handshake across all links (0 before the first).
	lastHandshake atomic.Int64

	hbStop    chan struct{}
	hbDone    chan struct{}
	closeOnce sync.Once
}

// link is one worker pairing. mu serializes the connection: exactly one
// exchange (link.call) is on the wire at a time, and reconnects replace
// the conn under the same lock.
type link struct {
	dialer Dialer
	chip   int
	nChips int
	params *ckks.Parameters
	opts   Options
	stats  *Stats

	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	pushed  map[uint64]bool // keys live on the CURRENT session; drop clears it
	dialed  bool            // a session existed before (reconnects count)
	healthy atomic.Bool

	// Redial backoff state (guarded by mu): consecutive failed connects
	// grow the delay exponentially with jitter; a success resets it.
	redialDelay time.Duration
	nextRedial  time.Time
	rng         *rand.Rand

	// lastHS points at the engine's shared last-successful-handshake
	// timestamp (unix nanos), exported per backend through /healthz.
	lastHS *atomic.Int64
}

// NewEngine dials and handshakes every worker. Worker i is chip i; the
// chip count is len(dialers). Startup is strict — a worker that cannot be
// reached or negotiates a different parameter digest fails construction —
// while a runtime loss fails its collective with ErrDegraded. With
// Options.AllowDegradedStart, unreachable workers leave their links down
// for the heartbeat loop to recover instead of failing construction; a
// digest mismatch still fails it, since no redial can cure one.
func NewEngine(params *ckks.Parameters, dialers []Dialer, opts Options) (*Engine, error) {
	if len(dialers) == 0 {
		return nil, fmt.Errorf("cluster: need at least one worker")
	}
	opts = opts.withDefaults()
	e := &Engine{
		params: params,
		opts:   opts,
		keyIDs: map[*ckks.EvalKey]uint64{},
	}
	for i, d := range dialers {
		lk := &link{
			dialer: d, chip: i, nChips: len(dialers),
			params: params, opts: opts, stats: &e.stats,
			pushed: map[uint64]bool{},
			rng:    rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(i)<<32)),
			lastHS: &e.lastHandshake,
		}
		// connectBackoff (not bare connect) so a boot-time failure seeds
		// the link's jittered redial state in the degraded-start case.
		err := lk.connectBackoff()
		if err != nil && (!opts.AllowDegradedStart || errors.Is(err, ErrDigestMismatch)) {
			e.Close()
			return nil, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		e.links = append(e.links, lk)
	}
	e.hbStop = make(chan struct{})
	e.hbDone = make(chan struct{})
	go e.heartbeatLoop()
	return e, nil
}

// Params returns the engine's parameter set.
func (e *Engine) Params() *ckks.Parameters { return e.params }

// NChips returns the cluster width (number of worker processes).
func (e *Engine) NChips() int { return len(e.links) }

// Healthy reports whether every worker session is currently established.
func (e *Engine) Healthy() bool {
	for _, lk := range e.links {
		if !lk.healthy.Load() {
			return false
		}
	}
	return true
}

// HealthyWorkers reports how many worker sessions are currently
// established (out of NChips).
func (e *Engine) HealthyWorkers() int {
	n := 0
	for _, lk := range e.links {
		if lk.healthy.Load() {
			n++
		}
	}
	return n
}

// LastHandshake reports when any worker last completed a successful
// handshake (zero time before the first). /healthz surfaces its age per
// backend: a recovered backend shows a fresh handshake, a dead one an
// ever-growing age.
func (e *Engine) LastHandshake() time.Time {
	ns := e.lastHandshake.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Snapshot captures the transport counters for the metrics endpoint.
func (e *Engine) Snapshot() *Snapshot {
	s := e.stats.snapshot()
	s.Workers = len(e.links)
	for _, lk := range e.links {
		if lk.healthy.Load() {
			s.Healthy++
		}
	}
	return &s
}

// Close tears down the heartbeat loop and every worker session.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		if e.hbStop != nil { // nil when construction failed before starting it
			close(e.hbStop)
			<-e.hbDone
		}
		for _, lk := range e.links {
			lk.mu.Lock()
			lk.drop()
			lk.mu.Unlock()
		}
	})
}

// EvictKeys invalidates evaluation keys end to end once the coordinator's
// key cache has let them go: the engine forgets the pointers' ids (a later
// push of the same pointer gets a fresh id), and every live worker session
// is told to drop its copy, so a worker holds only what the cache holds.
// Best-effort: a link that fails the exchange is dropped, and its
// reconnect starts from an empty worker key store anyway. A key id is also
// its evict exchange's id: the worker's keyGone echoes it.
func (e *Engine) EvictKeys(keys ...*ckks.EvalKey) {
	var ids []uint64
	e.keyMu.Lock()
	for _, k := range keys {
		if k == nil {
			continue
		}
		if id, ok := e.keyIDs[k]; ok {
			ids = append(ids, id)
			delete(e.keyIDs, k)
		}
	}
	e.keyMu.Unlock()
	if len(ids) == 0 {
		return
	}
	e.stats.KeyEvicts.Add(int64(len(ids)))
	for _, lk := range e.links {
		lk.mu.Lock()
		for _, id := range ids {
			// A dead session holds nothing: drop cleared pushed, so a link
			// whose evict fails (call drops it) skips the rest.
			if !lk.pushed[id] {
				continue
			}
			delete(lk.pushed, id)
			lk.stats.KeysResident.Add(-1)
			// One RPCTimeout per round trip, not one for the whole batch:
			// a wide key set over a slow link must not turn a routine
			// cache eviction into a dropped (healthy) worker session when
			// a single shared deadline expires partway through.
			_, _ = lk.call(time.Now().Add(lk.opts.RPCTimeout), id, msgKeyGone, msgKeyEvict, appendU64(nil, id), nil)
		}
		lk.mu.Unlock()
	}
}

// KeySwitch implements ckks.KeySwitcher with the input-broadcast
// collective. It takes default-partition keys only: a key with a digit
// partition (GenEvalKeyDigits) fails before any key push or frame.
func (e *Engine) KeySwitch(c *ring.Poly, evk *ckks.EvalKey) (*ring.Poly, *ring.Poly, error) {
	f0, f1, _, err := e.KeySwitchStats(c, evk)
	return f0, f1, err
}

// Bound returns a ckks.KeySwitcher view of the engine whose collectives
// run under ctx: the request deadline clamps every per-worker RPC deadline
// and cancellation stops retries, so an HTTP request's budget propagates
// all the way to the wire.
func (e *Engine) Bound(ctx context.Context) ckks.KeySwitcher {
	return boundEngine{e: e, ctx: ctx}
}

type boundEngine struct {
	e   *Engine
	ctx context.Context
}

func (b boundEngine) KeySwitch(c *ring.Poly, evk *ckks.EvalKey) (*ring.Poly, *ring.Poly, error) {
	f0, f1, _, err := b.e.keySwitchStatsCtx(b.ctx, c, evk)
	return f0, f1, err
}

// KeySwitchStats is KeySwitch plus the measured communication bill of the
// input broadcast, in the paper's units.
func (e *Engine) KeySwitchStats(c *ring.Poly, evk *ckks.EvalKey) (*ring.Poly, *ring.Poly, keyswitch.CommStats, error) {
	return e.keySwitchStatsCtx(context.Background(), c, evk)
}

func (e *Engine) keySwitchStatsCtx(ctx context.Context, c *ring.Poly, evk *ckks.EvalKey) (*ring.Poly, *ring.Poly, keyswitch.CommStats, error) {
	if !c.IsNTT {
		return nil, nil, keyswitch.CommStats{}, fmt.Errorf("cluster: keyswitch input must be NTT")
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, keyswitch.CommStats{}, err
	}
	if evk.DigitSets != nil {
		return nil, nil, keyswitch.CommStats{}, fmt.Errorf("cluster: key has a %d-set digit partition; the cluster runs input broadcast over default-partition keys only", len(evk.DigitSets))
	}
	return e.inputBroadcast(ctx, c, evk)
}

func (e *Engine) keyID(evk *ckks.EvalKey) uint64 {
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	id, ok := e.keyIDs[evk]
	if !ok {
		id = e.ids.Add(1)
		e.keyIDs[evk] = id
	}
	return id
}

// inputBroadcast runs Fig. 8b over the cluster: ONE broadcast of the input
// limbs (streamed digit by digit so workers absorb while later digits are
// still in flight), after which every chip's mod-up, inner product and
// mod-down are local; the workers return only their owned output limbs.
func (e *Engine) inputBroadcast(ctx context.Context, c *ring.Poly, evk *ckks.EvalKey) (*ring.Poly, *ring.Poly, keyswitch.CommStats, error) {
	r := e.params.Ring
	l := c.Basis.Len() - 1
	n := len(e.links)
	start := time.Now()
	digits := keyswitch.DigitRanges(e.params, evk, l)

	cc := c.Copy()
	if err := r.INTT(cc); err != nil {
		return nil, nil, keyswitch.CommStats{}, err
	}
	out0 := r.NewPoly(c.Basis)
	out1 := r.NewPoly(c.Basis)
	out0.IsNTT, out1.IsNTT = true, true

	moved := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for chip := 0; chip < n; chip++ {
		mine := keyswitch.ChipLimbs(chip, l, n)
		if len(mine) == 0 {
			continue // more chips than limbs: this chip sits the collective out
		}
		wg.Add(1)
		go func(chip int, mine []int) {
			defer wg.Done()
			res, err := e.links[chip].keyswitchRPC(ctx, e, evk, digits, cc)
			if err != nil {
				errs[chip] = err
				return
			}
			if err := copyOwnedLimbs(out0, out1, res, mine); err != nil {
				errs[chip] = err
				return
			}
			moved[chip] = int(res.moved)
		}(chip, mine)
	}
	wg.Wait()
	if err := lostWorker(ctx, errs); err != nil {
		return nil, nil, keyswitch.CommStats{}, err
	}
	stats := keyswitch.CommStats{Broadcasts: 1}
	for _, m := range moved {
		stats.LimbsMoved += m
	}
	e.stats.Broadcasts.Add(1)
	e.stats.LimbsMoved.Add(int64(stats.LimbsMoved))
	e.stats.collectiveLat.Observe(time.Since(start))
	return out0, out1, stats, nil
}

// lostWorker turns a broadcast's per-chip RPC errors into its one outcome:
// nil when every chip answered, the caller's own context error when that is
// what ended it (client evidence, not worker evidence), else ErrDegraded
// naming the first lost chip.
func lostWorker(ctx context.Context, errs []error) error {
	for chip, err := range errs {
		if err == nil {
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return fmt.Errorf("%w: worker %d lost mid-broadcast: %v", ErrDegraded, chip, err)
	}
	return nil
}

// streamDigits broadcasts the input limbs digit by digit, flushing each
// frame so the worker's absorb of digit d overlaps the send of digit d+1.
func streamDigits(bw *bufio.Writer, req uint64, digits [][2]int, cc *ring.Poly) error {
	for d, rng := range digits {
		view, err := cc.View(rangeIndices(rng[0], rng[1]))
		if err != nil {
			return err
		}
		chain := rangeIndices(rng[0], rng[1])
		p := encodeLimbs(req, uint32(d), chain, view.Limbs)
		err = WriteFrame(bw, msgLimbs, p)
		putFrameBuf(p)
		if err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func rangeIndices(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// copyOwnedLimbs installs a worker's result limbs, validating that it
// returned exactly the chain indices it owns.
func copyOwnedLimbs(out0, out1 *ring.Poly, res *ksResultMsg, mine []int) error {
	if len(res.chain0) != len(mine) || len(res.chain1) != len(mine) {
		return fmt.Errorf("cluster: worker returned %d+%d limbs, owns %d", len(res.chain0), len(res.chain1), len(mine))
	}
	for k, j := range mine {
		if res.chain0[k] != j || res.chain1[k] != j {
			return fmt.Errorf("cluster: worker returned limb at chain %d/%d, owns %d", res.chain0[k], res.chain1[k], j)
		}
		copy(out0.Limbs[j], res.limbs0[k])
		copy(out1.Limbs[j], res.limbs1[k])
	}
	return nil
}

// --- link: per-worker session management ---

// connect establishes (or re-establishes) the session under lk.mu. The
// hello's exchange id is the parameter digest: the worker echoes it in its
// helloAck, or refuses the pairing with a msgError leading with it.
func (lk *link) connect() error {
	lk.drop()
	ctx, cancel := context.WithTimeout(context.Background(), lk.opts.DialTimeout)
	raw, err := lk.dialer.Dial(ctx)
	cancel()
	if err != nil {
		return err
	}
	conn := &countingConn{Conn: raw, stats: lk.stats}
	lk.conn, lk.br, lk.bw = conn, bufio.NewReaderSize(conn, 1<<16), bufio.NewWriterSize(conn, 1<<16)
	digest := ParamsDigest(lk.params)
	_, err = lk.call(time.Now().Add(lk.opts.RPCTimeout), digest, msgHelloAck, msgHello, encodeHello(helloMsg{
		digest: digest, nChips: uint32(lk.nChips), chip: uint32(lk.chip),
	}), nil)
	var rerr *remoteError
	if errors.As(err, &rerr) {
		lk.drop()
		return fmt.Errorf("%w: %s", ErrDigestMismatch, rerr.msg)
	}
	if err != nil {
		return fmt.Errorf("cluster: handshake: %w", err)
	}
	if lk.dialed {
		lk.stats.Reconnects.Add(1)
	}
	lk.dialed = true
	lk.healthy.Store(true)
	lk.redialDelay, lk.nextRedial = 0, time.Time{}
	if lk.lastHS != nil {
		lk.lastHS.Store(time.Now().UnixNano())
	}
	return nil
}

// errRedialBackoff is the fast-path failure while a link's redial window
// has not elapsed: the collective fails at once instead of stacking dial
// attempts on a worker that just refused one.
var errRedialBackoff = errors.New("cluster: worker redial backed off")

// connectBackoff is connect() behind the jittered exponential redial gate
// (lk.mu held by caller). Every failed attempt doubles the link's delay
// from RetryBackoff up to max(1s, 4×HeartbeatInterval), so a dead backend
// is probed at a decaying rate instead of being hammered in lockstep by
// every heartbeat tick and RPC retry; the next window is jittered
// into [0.5, 1.0]× so coordinators sharing a revived worker don't redial
// in lockstep. A successful connect resets the state.
func (lk *link) connectBackoff() error {
	if !lk.nextRedial.IsZero() && time.Now().Before(lk.nextRedial) {
		return errRedialBackoff
	}
	err := lk.connect()
	if err == nil {
		return nil
	}
	if lk.redialDelay == 0 {
		lk.redialDelay = lk.opts.RetryBackoff
	} else {
		lk.redialDelay *= 2
	}
	lk.redialDelay = min(lk.redialDelay, max(time.Second, 4*lk.opts.HeartbeatInterval))
	jittered := lk.redialDelay/2 + time.Duration(lk.rng.Int63n(int64(lk.redialDelay/2)+1))
	lk.nextRedial = time.Now().Add(jittered)
	return err
}

// drop closes the session (under lk.mu) and marks the link unhealthy. The
// worker's key store died with the session, so the link forgets it too.
func (lk *link) drop() {
	if lk.conn != nil {
		lk.conn.Close()
		lk.conn, lk.br, lk.bw = nil, nil, nil
	}
	lk.healthy.Store(false)
	lk.stats.KeysResident.Add(-int64(len(lk.pushed)))
	clear(lk.pushed)
}

// ensureKey pushes evk under id if this session hasn't seen it — the one
// push path: lazy, keyed by pointer identity on the coordinator, encoded
// from the key the collective holds. The key id is the exchange id.
func (lk *link) ensureKey(deadline time.Time, id uint64, evk *ckks.EvalKey) error {
	if lk.pushed[id] {
		return nil
	}
	if _, err := lk.call(deadline, id, msgKeyAck, msgSetKey, encodeSetKey(id, evk), nil); err != nil {
		return err
	}
	lk.pushed[id] = true
	lk.stats.KeyPushes.Add(1)
	lk.stats.KeysResident.Add(1)
	return nil
}

// keyswitchRPC runs one keyswitch against this worker: begin frame, the
// digit stream of cc (coefficient domain), then the result — under a
// per-RPC deadline, with bounded redial-and-retry on transport failure.
// Semantic worker errors are not retried.
func (lk *link) keyswitchRPC(ctx context.Context, e *Engine, evk *ckks.EvalKey, digits [][2]int, cc *ring.Poly) (*ksResultMsg, error) {
	var lastErr error
	for attempt := 0; attempt <= rpcRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err() // caller's budget is spent; don't retry
			case <-time.After(lk.opts.RetryBackoff):
			}
		}
		res, err := lk.tryKeyswitch(ctx, e, evk, digits, cc)
		if err == nil {
			return res, nil
		}
		lastErr = err
		var rerr *remoteError
		if errors.As(err, &rerr) {
			return nil, err // deterministic: retrying cannot help
		}
	}
	return nil, lastErr
}

func (lk *link) tryKeyswitch(ctx context.Context, e *Engine, evk *ckks.EvalKey, digits [][2]int, cc *ring.Poly) (*ksResultMsg, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.conn == nil {
		if err := lk.connectBackoff(); err != nil {
			return nil, err
		}
	}
	// RPCTimeout from now, clamped by the caller's deadline when sooner.
	deadline := time.Now().Add(lk.opts.RPCTimeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(deadline) {
		deadline = cd
	}
	// The key is named and pushed under the link lock, so an EvictKeys of
	// it waits for this keyswitch to finish on this link, or has already
	// finished and the key gets a fresh id.
	begin := ksBeginMsg{keyID: e.keyID(evk), level: uint32(cc.Basis.Len() - 1), frames: uint32(len(digits))}
	if err := lk.ensureKey(deadline, begin.keyID, evk); err != nil {
		return nil, err
	}
	begin.req = e.ids.Add(1)
	p := encodeKSBegin(begin)
	reply, err := lk.call(deadline, begin.req, msgKSResult, msgKSBegin, p, func(bw *bufio.Writer) error {
		return streamDigits(bw, begin.req, digits, cc)
	})
	putFrameBuf(p)
	if err != nil {
		return nil, err
	}
	m, err := decodeKSResult(reply, lk.params.N())
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// call is the one exchange on a worker link (lk.mu held, session up): it
// writes the typ request, lets more stream the frames that follow it (nil
// for none), flushes, and reads until the answer — the first want or
// msgError frame leading with id. Every other frame is a stale duplicate of
// a settled exchange and is skipped (parseReply). The exchange runs under
// deadline. A msgError answer returns *remoteError and keeps the session;
// any other failure drops it, since the stream position is then unknown.
func (lk *link) call(deadline time.Time, id uint64, want, typ byte, payload []byte, more func(*bufio.Writer) error) (reply []byte, err error) {
	defer func() {
		var rerr *remoteError
		if err != nil && !errors.As(err, &rerr) {
			lk.drop()
		} else {
			lk.conn.SetDeadline(time.Time{})
		}
	}()
	lk.conn.SetDeadline(deadline)
	if err := WriteFrame(lk.bw, typ, payload); err != nil {
		return nil, err
	}
	if more != nil {
		if err := more(lk.bw); err != nil {
			return nil, err
		}
	}
	if err := lk.bw.Flush(); err != nil {
		return nil, err
	}
	for {
		rtyp, reply, err := ReadFrame(lk.br)
		if err != nil {
			return nil, err
		}
		if done, err := parseReply(rtyp, reply, id, want); done || err != nil {
			return reply, err
		}
	}
}

// heartbeatLoop periodically pings healthy workers (detecting silent
// deaths) and redials lost ones, restoring the cluster to full strength
// without operator action. Redials go through the per-link jittered
// exponential backoff: the first loss is retried on the next tick, a
// worker that stays dead is probed at a decaying rate up to
// max(1s, 4×HeartbeatInterval) apart, and the first successful connect
// resets the schedule — so reviving a worker never triggers a lockstep
// dial storm.
func (e *Engine) heartbeatLoop() {
	defer close(e.hbDone)
	t := time.NewTicker(e.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-e.hbStop:
			return
		case <-t.C:
		}
		for _, lk := range e.links {
			if !lk.mu.TryLock() {
				continue // an RPC is in flight: the link is demonstrably alive
			}
			alive := false
			if lk.conn != nil {
				nonce := e.ids.Add(1)
				_, err := lk.call(time.Now().Add(e.opts.RPCTimeout), nonce, msgPong, msgPing, appendU64(nil, nonce), nil)
				alive = err == nil
			}
			// Redial in the same tick: a poisoned session (corrupt frame,
			// mid-collective disconnect) costs at most one heartbeat
			// interval of degraded capacity, not two.
			if alive || lk.connectBackoff() == nil {
				e.stats.Heartbeats.Add(1)
			}
			lk.mu.Unlock()
		}
	}
}

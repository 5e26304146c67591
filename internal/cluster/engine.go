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
	// lost worker back without request traffic, so it is always on.
	// Default 1s.
	HeartbeatInterval time.Duration
	// RedialBackoffMax caps the jittered exponential backoff between
	// redial attempts of a dead worker. Consecutive failed connects double
	// the per-link delay from RetryBackoff up to this cap, so a dead
	// backend is probed at a decaying rate instead of being hammered in
	// lockstep by every heartbeat tick and RPC retry. Default:
	// max(1s, 4×HeartbeatInterval).
	RedialBackoffMax time.Duration
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
	if o.RedialBackoffMax <= 0 {
		o.RedialBackoffMax = max(time.Second, 4*o.HeartbeatInterval)
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
	local  *keyswitch.Engine // shared partition arithmetic (OAMine); never computes
	opts   Options
	links  []*link
	stats  Stats

	// keyIDs names each key by pointer for the wire: a push encodes the
	// *EvalKey the collective holds, and EvictKeys forgets the name, so a
	// later push of the same pointer gets a fresh id.
	keyMu   sync.Mutex
	keyIDs  map[*ckks.EvalKey]uint64
	nextKey uint64

	reqSeq   atomic.Uint64
	nonceSeq atomic.Uint64

	// lastHandshake is the unix-nano time of the most recent successful
	// worker handshake across all links (0 before the first).
	lastHandshake atomic.Int64

	hbStop    chan struct{}
	hbDone    chan struct{}
	closeOnce sync.Once
}

// link is one worker pairing. mu serializes the connection: exactly one
// RPC (or heartbeat) is on the wire at a time, and reconnects replace the
// conn under the same lock.
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
	local, err := keyswitch.NewEngine(params, len(dialers))
	if err != nil {
		return nil, err
	}
	e := &Engine{
		params: params,
		local:  local,
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
// reconnect starts from an empty worker key store anyway.
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
		if lk.conn == nil {
			lk.mu.Unlock()
			continue // nothing resident on a dead session
		}
		for _, id := range ids {
			if !lk.pushed[id] {
				continue
			}
			delete(lk.pushed, id)
			lk.stats.KeysResident.Add(-1)
			// One RPCTimeout per round trip, not one for the whole batch:
			// a wide key set over a slow link must not turn a routine
			// cache eviction into a dropped (healthy) worker session when
			// a single shared deadline expires partway through.
			lk.conn.SetDeadline(time.Now().Add(lk.opts.RPCTimeout))
			if err := lk.evictKey(id); err != nil {
				lk.drop()
				break
			}
		}
		if lk.conn != nil {
			lk.conn.SetDeadline(time.Time{})
		}
		lk.mu.Unlock()
	}
}

// evictKey runs one evict round trip (lk.mu held, conn non-nil).
func (lk *link) evictKey(id uint64) error {
	if err := WriteFrame(lk.bw, msgKeyEvict, encodeKeyEvict(id)); err != nil {
		return err
	}
	if err := lk.bw.Flush(); err != nil {
		return err
	}
	typ, payload, err := lk.readReply(0)
	if err != nil {
		return err
	}
	if typ != msgKeyGone {
		return fmt.Errorf("cluster: expected evict ack, got frame %#x", typ)
	}
	_, got, err := decodeKeyGone(payload)
	if err != nil {
		return err
	}
	if got != id {
		return fmt.Errorf("cluster: evict ack for key %d, sent %d", got, id)
	}
	return nil
}

// KeySwitch implements ckks.KeySwitcher: the algorithm follows the key's
// digit format — a modular-digit key (GenEvalKeyDigits) runs output
// aggregation, the default hybrid partition runs input broadcast.
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
// collective, in the paper's units.
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
		return e.outputAggregation(ctx, c, evk)
	}
	return e.inputBroadcast(ctx, c, evk)
}

func (e *Engine) keyID(evk *ckks.EvalKey) uint64 {
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	id, ok := e.keyIDs[evk]
	if !ok {
		e.nextKey++
		id = e.nextKey
		e.keyIDs[evk] = id
	}
	return id
}

// digitRanges lists the [lo,hi) chain ranges of every hybrid digit at
// level l — one broadcast frame per digit.
func (e *Engine) digitRanges(evk *ckks.EvalKey, l int) [][2]int {
	var out [][2]int
	for d := 0; d < evk.Digits(); d++ {
		lo, hi, ok := e.params.DigitRange(d, l)
		if !ok {
			break
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
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
	digits := e.digitRanges(evk, l)

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
		mine := chipOwned(chip, l, n)
		if len(mine) == 0 {
			continue // more chips than limbs: this chip sits the collective out
		}
		wg.Add(1)
		go func(chip int, mine []int) {
			defer wg.Done()
			res, err := e.links[chip].keyswitchRPC(ctx, e, evk, ksBeginMsg{
				alg: algIB, level: uint32(l), frames: uint32(len(digits)),
			}, func(bw *bufio.Writer, req uint64) error {
				return streamDigits(bw, req, digits, cc)
			})
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
	if err := lostWorker(ctx, errs, "broadcast"); err != nil {
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

// outputAggregation runs Fig. 8c over the cluster: the chip partition IS
// the digit partition, so each worker receives ONLY its own limbs (the
// scatter), computes and mod-downs its full-width product locally, and the
// coordinator — standing in for the aggregation root — sums the two
// partial polynomials: the two aggregate-and-scatter operations.
func (e *Engine) outputAggregation(ctx context.Context, c *ring.Poly, evk *ckks.EvalKey) (*ring.Poly, *ring.Poly, keyswitch.CommStats, error) {
	r := e.params.Ring
	l := c.Basis.Len() - 1
	n := len(e.links)
	start := time.Now()
	if len(evk.DigitSets) != n {
		return nil, nil, keyswitch.CommStats{}, fmt.Errorf("cluster: key has %d digit sets, cluster has %d workers", len(evk.DigitSets), n)
	}

	cc := c.Copy()
	if err := r.INTT(cc); err != nil {
		return nil, nil, keyswitch.CommStats{}, err
	}
	results := make([]*ksResultMsg, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for chip := 0; chip < n; chip++ {
		mine, err := e.local.OAMine(evk, chip, l)
		if err != nil {
			return nil, nil, keyswitch.CommStats{}, err
		}
		if len(mine) == 0 {
			continue
		}
		wg.Add(1)
		go func(chip int, mine []int) {
			defer wg.Done()
			res, err := e.links[chip].keyswitchRPC(ctx, e, evk, ksBeginMsg{
				alg: algOA, level: uint32(l), frames: 1,
			}, func(bw *bufio.Writer, req uint64) error {
				limbs := make([][]uint64, len(mine))
				for k, j := range mine {
					limbs[k] = cc.Limbs[j]
				}
				p := encodeLimbs(req, scatterDigit, mine, limbs)
				err := WriteFrame(bw, msgLimbs, p)
				putFrameBuf(p)
				return err
			})
			if err != nil {
				errs[chip] = err
				return
			}
			results[chip] = res
		}(chip, mine)
	}
	wg.Wait()
	if err := lostWorker(ctx, errs, "aggregation"); err != nil {
		return nil, nil, keyswitch.CommStats{}, err
	}

	// Aggregate: sum the partial polynomials in chip order (modular
	// addition is exactly associative, but a fixed order keeps runs
	// reproducible), then return to NTT domain.
	sum0 := r.NewPoly(c.Basis)
	sum1 := r.NewPoly(c.Basis)
	stats := keyswitch.CommStats{Aggregations: 2}
	for chip := 0; chip < n; chip++ {
		res := results[chip]
		if res == nil {
			continue
		}
		if len(res.limbs0) != l+1 || len(res.limbs1) != l+1 {
			return nil, nil, stats, fmt.Errorf("cluster: worker %d returned %d+%d partial limbs, want %d each", chip, len(res.limbs0), len(res.limbs1), l+1)
		}
		for j := 0; j <= l; j++ {
			addInto(sum0.Limbs[j], res.limbs0[j], c.Basis.Moduli[j])
			addInto(sum1.Limbs[j], res.limbs1[j], c.Basis.Moduli[j])
		}
		stats.LimbsMoved += int(res.moved)
	}
	if err := r.NTT(sum0); err != nil {
		return nil, nil, stats, err
	}
	if err := r.NTT(sum1); err != nil {
		return nil, nil, stats, err
	}
	e.stats.Aggregations.Add(2)
	e.stats.LimbsMoved.Add(int64(stats.LimbsMoved))
	e.stats.collectiveLat.Observe(time.Since(start))
	return sum0, sum1, stats, nil
}

// lostWorker turns a collective's per-chip RPC errors into its one outcome:
// nil when every chip answered, the caller's own context error when that is
// what ended it (client evidence, not worker evidence), else ErrDegraded
// naming the first lost chip.
func lostWorker(ctx context.Context, errs []error, collective string) error {
	for chip, err := range errs {
		if err == nil {
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return fmt.Errorf("%w: worker %d lost mid-%s: %v", ErrDegraded, chip, collective, err)
	}
	return nil
}

// addInto accumulates src into dst mod q (the aggregation root's sum).
func addInto(dst, src []uint64, q uint64) {
	for i, v := range src {
		s := dst[i] + v
		if s >= q {
			s -= q
		}
		dst[i] = s
	}
}

// chipOwned lists the chain indices chip owns at level l under the modular
// partition.
func chipOwned(chip, l, nChips int) []int {
	var out []int
	for j := chip; j <= l; j += nChips {
		out = append(out, j)
	}
	return out
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

// remoteError is a semantic failure reported in-band by a worker. It is
// deterministic (bad key, wrong topology), so the RPC layer does not retry
// it.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return "cluster: worker reported: " + e.msg }

// --- link: per-worker session management ---

// connect establishes (or re-establishes) the session under lk.mu.
func (lk *link) connect() error {
	lk.drop()
	ctx, cancel := context.WithTimeout(context.Background(), lk.opts.DialTimeout)
	raw, err := lk.dialer.Dial(ctx)
	cancel()
	if err != nil {
		return err
	}
	conn := &countingConn{Conn: raw, stats: lk.stats}
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)

	conn.SetDeadline(time.Now().Add(lk.opts.RPCTimeout))
	defer conn.SetDeadline(time.Time{})
	digest := ParamsDigest(lk.params)
	if err := WriteFrame(bw, msgHello, encodeHello(helloMsg{
		digest: digest, nChips: uint32(lk.nChips), chip: uint32(lk.chip),
	})); err != nil {
		raw.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		raw.Close()
		return err
	}
	typ, payload, err := ReadFrame(br)
	if err != nil {
		raw.Close()
		return fmt.Errorf("cluster: reading hello ack: %w", err)
	}
	switch typ {
	case msgHelloAck:
		got, err := decodeHelloAck(payload)
		if err != nil {
			raw.Close()
			return err
		}
		if got != digest {
			raw.Close()
			return fmt.Errorf("%w: coordinator %016x, worker %016x", ErrDigestMismatch, digest, got)
		}
	case msgError:
		_, msg, _ := decodeError(payload)
		raw.Close()
		return fmt.Errorf("%w: %s", ErrDigestMismatch, msg)
	default:
		raw.Close()
		return fmt.Errorf("cluster: unexpected handshake frame %#x", typ)
	}
	if lk.dialed {
		lk.stats.Reconnects.Add(1)
	}
	lk.dialed = true
	lk.conn, lk.br, lk.bw = conn, br, bw
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
// from RetryBackoff up to RedialBackoffMax; the next window is jittered
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
	if lk.redialDelay > lk.opts.RedialBackoffMax {
		lk.redialDelay = lk.opts.RedialBackoffMax
	}
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
// from the key the collective holds.
func (lk *link) ensureKey(id uint64, evk *ckks.EvalKey) error {
	if lk.pushed[id] {
		return nil
	}
	if err := WriteFrame(lk.bw, msgSetKey, encodeSetKey(id, evk)); err != nil {
		return err
	}
	if err := lk.bw.Flush(); err != nil {
		return err
	}
	typ, payload, err := lk.readReply(0)
	if err != nil {
		return err
	}
	if typ != msgKeyAck {
		return fmt.Errorf("cluster: expected key ack, got frame %#x", typ)
	}
	got, err := decodeKeyAck(payload)
	if err != nil {
		return err
	}
	if got != id {
		return fmt.Errorf("cluster: key ack for %d, pushed %d", got, id)
	}
	lk.pushed[id] = true
	lk.stats.KeyPushes.Add(1)
	lk.stats.KeysResident.Add(1)
	return nil
}

// keyswitchRPC runs one keyswitch against this worker: begin frame, the
// caller-provided limb stream, then the result — under a per-RPC deadline,
// with bounded redial-and-retry on transport failure. Semantic worker
// errors are not retried.
func (lk *link) keyswitchRPC(ctx context.Context, e *Engine, evk *ckks.EvalKey, begin ksBeginMsg, sendLimbs func(*bufio.Writer, uint64) error) (*ksResultMsg, error) {
	var lastErr error
	for attempt := 0; attempt <= rpcRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err() // caller's budget is spent; don't retry
			case <-time.After(lk.opts.RetryBackoff):
			}
		}
		res, err := lk.tryKeyswitch(ctx, e, evk, begin, sendLimbs)
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

// rpcDeadline is the per-RPC wire deadline: RPCTimeout from now, clamped
// by the caller's context deadline when that is sooner.
func (lk *link) rpcDeadline(ctx context.Context) time.Time {
	d := time.Now().Add(lk.opts.RPCTimeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(d) {
		d = cd
	}
	return d
}

func (lk *link) tryKeyswitch(ctx context.Context, e *Engine, evk *ckks.EvalKey, begin ksBeginMsg, sendLimbs func(*bufio.Writer, uint64) error) (res *ksResultMsg, err error) {
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
	// Any failure past this point poisons the session (the stream position
	// is unknown), so drop it; the retry or the heartbeat loop redials.
	defer func() {
		if err != nil {
			if _, ok := err.(*remoteError); !ok {
				lk.drop()
			}
		}
	}()
	lk.conn.SetDeadline(lk.rpcDeadline(ctx))
	defer func() {
		if lk.conn != nil {
			lk.conn.SetDeadline(time.Time{})
		}
	}()
	// The key is named and pushed under the link lock, so an EvictKeys of
	// it waits for this keyswitch to finish on this link, or has already
	// finished and the key gets a fresh id.
	begin.keyID = e.keyID(evk)
	if err := lk.ensureKey(begin.keyID, evk); err != nil {
		return nil, err
	}
	req := e.reqSeq.Add(1)
	begin.req = req
	p := encodeKSBegin(begin)
	err = WriteFrame(lk.bw, msgKSBegin, p)
	putFrameBuf(p)
	if err != nil {
		return nil, err
	}
	if err := sendLimbs(lk.bw, req); err != nil {
		return nil, err
	}
	if err := lk.bw.Flush(); err != nil {
		return nil, err
	}
	typ, payload, err := lk.readReply(0)
	if err != nil {
		return nil, err
	}
	switch typ {
	case msgKSResult:
		m, err := decodeKSResult(payload, lk.params.N())
		if err != nil {
			return nil, err
		}
		if m.req != req {
			return nil, fmt.Errorf("cluster: result for request %d, expected %d", m.req, req)
		}
		return &m, nil
	case msgError:
		r, msg, err := decodeError(payload)
		if err != nil {
			return nil, err
		}
		if r != req {
			return nil, fmt.Errorf("cluster: error frame for request %d, expected %d", r, req)
		}
		return nil, &remoteError{msg: msg}
	default:
		return nil, fmt.Errorf("cluster: unexpected frame %#x awaiting result", typ)
	}
}

// readReply reads the next reply on the session (lk.mu held), skipping
// every pong except the one answering the ping in flight — ping is that
// ping's nonce, 0 outside a heartbeat (nonces start at 1). A pong that
// arrives late or twice is stale, and must not fail whichever exchange
// happens to read next.
func (lk *link) readReply(ping uint64) (byte, []byte, error) {
	for {
		typ, payload, err := ReadFrame(lk.br)
		if err != nil || typ != msgPong {
			return typ, payload, err
		}
		if nonce, err := decodePing(payload); err != nil || nonce == ping {
			return typ, payload, err
		}
	}
}

// ping runs one heartbeat round trip (lock held by caller).
func (lk *link) ping(e *Engine) error {
	lk.conn.SetDeadline(time.Now().Add(lk.opts.RPCTimeout))
	defer func() {
		if lk.conn != nil {
			lk.conn.SetDeadline(time.Time{})
		}
	}()
	nonce := e.nonceSeq.Add(1)
	if err := WriteFrame(lk.bw, msgPing, encodePing(nonce)); err != nil {
		return err
	}
	if err := lk.bw.Flush(); err != nil {
		return err
	}
	typ, _, err := lk.readReply(nonce)
	if err != nil {
		return err
	}
	if typ != msgPong {
		return fmt.Errorf("cluster: expected pong, got frame %#x", typ)
	}
	return nil
}

// heartbeatLoop periodically pings healthy workers (detecting silent
// deaths) and redials lost ones, restoring the cluster to full strength
// without operator action. Redials go through the per-link jittered
// exponential backoff: the first loss is retried on the next tick, a
// worker that stays dead is probed at a decaying rate up to
// RedialBackoffMax apart, and the first successful connect resets the
// schedule — so reviving a worker never triggers a lockstep dial storm.
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
			if lk.conn == nil {
				if err := lk.connectBackoff(); err == nil {
					e.stats.Heartbeats.Add(1)
				}
			} else if err := lk.ping(e); err != nil {
				// Redial in the same tick: a poisoned session (corrupt frame,
				// mid-collective disconnect) costs at most one heartbeat
				// interval of degraded capacity, not two.
				lk.drop()
				if err := lk.connectBackoff(); err == nil {
					e.stats.Heartbeats.Add(1)
				}
			} else {
				e.stats.Heartbeats.Add(1)
			}
			lk.mu.Unlock()
		}
	}
}

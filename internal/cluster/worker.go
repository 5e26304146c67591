package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/keyswitch"
)

// ErrDigestMismatch is returned when a coordinator and worker disagree on
// the CKKS parameter set; proceeding would silently compute wrong limbs.
var ErrDigestMismatch = errors.New("cluster: parameter digest mismatch")

// Worker executes one chip's share of keyswitch collectives. It is
// stateless between sessions: each coordinator connection carries its own
// handshake (topology, parameter digest) and key store, so a restarted
// coordinator — or a reconnect after a network fault — starts clean and
// re-pushes whatever keys it needs. What a session's key store holds is the
// coordinator's decision alone: it pushes a key before the first keyswitch
// that names it and evicts it when its key cache lets the key go.
type Worker struct {
	Params *ckks.Parameters

	// PartialFrameTimeout bounds how long a coordinator may take to finish
	// a frame it has started sending; a peer that ships a header then
	// stalls ends the session instead of wedging it forever. Zero selects
	// defaultPartialFrameTimeout; sessions may still idle indefinitely
	// between frames.
	PartialFrameTimeout time.Duration
}

const defaultPartialFrameTimeout = 30 * time.Second

// NewWorker builds a worker over the given parameter set (which must match
// the coordinator's; the handshake verifies the digest).
func NewWorker(params *ckks.Parameters) *Worker {
	return &Worker{Params: params}
}

// session is the per-connection state of one coordinator pairing.
type session struct {
	w            *Worker
	chip, nChips int
	bw           *bufio.Writer
	keys         map[uint64]*ckks.EvalKey // pushed and not yet evicted
	// plans holds the chip's keyswitch plan per level, compiled by the
	// first keyswitch at that level and kept for the session.
	plans []*ckks.KSPlan
	// getLimb draws the limbs a digit frame decodes into from the ring's
	// pool; they go back once the frame is absorbed.
	getLimb func() []uint64
}

// pendingKS is one in-flight keyswitch request. Limb frames absorb into it
// as they arrive — the receive/compute overlap of the pipelined protocol.
// Semantic failures are recorded in err and reported only after every
// announced frame has been consumed, so the worker never writes mid-stream
// (which would deadlock an unbuffered transport like net.Pipe).
type pendingKS struct {
	req    uint64
	level  int
	frames int
	got    int

	pl  *ckks.KSPlan
	run ckks.KSRun
	err error
}

// Serve runs one coordinator session until the peer disconnects. A clean
// EOF returns nil; handshake and protocol violations return the error
// (request-scoped failures are reported in-band and do not end the
// session).
func (w *Worker) Serve(conn net.Conn) error {
	defer conn.Close()
	partial := w.PartialFrameTimeout
	if partial == 0 {
		partial = defaultPartialFrameTimeout
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	s := &session{w: w, keys: map[uint64]*ckks.EvalKey{}, bw: bufio.NewWriterSize(conn, 1<<16), getLimb: w.Params.Ring.GetLimb}

	typ, payload, err := ReadFrameTimeout(conn, br, partial)
	if err != nil {
		return fmt.Errorf("cluster: reading hello: %w", err)
	}
	if typ != msgHello {
		return fmt.Errorf("cluster: expected hello, got frame type %#x", typ)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return err
	}
	digest := ParamsDigest(w.Params)
	if h.digest != digest {
		// Tell the coordinator why before hanging up, answering its digest.
		s.send(msgError, appendStr(appendU64(nil, h.digest), fmt.Sprintf("parameter digest mismatch: coordinator %016x, worker %016x", h.digest, digest)))
		return ErrDigestMismatch
	}
	s.chip, s.nChips = int(h.chip), int(h.nChips)
	s.plans = make([]*ckks.KSPlan, w.Params.MaxLevel()+1)
	if err := s.send(msgHelloAck, appendU64(nil, digest)); err != nil {
		return err
	}

	var pending *pendingKS
	for {
		typ, payload, err := ReadFrameTimeout(conn, br, partial)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		switch typ {
		case msgPing:
			nonce, err := decodeID(payload)
			if err != nil {
				return err
			}
			if err := s.send(msgPong, appendU64(nil, nonce)); err != nil {
				return err
			}
		case msgSetKey:
			id, key, err := decodeSetKey(payload, w.Params)
			if err != nil {
				return fmt.Errorf("cluster: decoding key push: %w", err)
			}
			s.keys[id] = key
			if err := s.send(msgKeyAck, appendU64(nil, id)); err != nil {
				return err
			}
		case msgKeyEvict:
			id, err := decodeID(payload)
			if err != nil {
				return fmt.Errorf("cluster: decoding key evict: %w", err)
			}
			delete(s.keys, id)
			if err := s.send(msgKeyGone, appendU64(nil, id)); err != nil {
				return err
			}
		case msgKSBegin:
			m, err := decodeKSBegin(payload)
			if err != nil {
				return err
			}
			if pending != nil {
				return fmt.Errorf("cluster: keyswitch %d begun while %d in flight", m.req, pending.req)
			}
			pending = s.begin(m)
			if pending.frames == 0 { // no limb frames announced: answer at once
				if err := s.finish(pending); err != nil {
					return err
				}
				pending = nil
			}
		case msgLimbs:
			f, err := decodeLimbs(payload, w.Params.N(), s.getLimb)
			if err != nil {
				return fmt.Errorf("cluster: decoding limb frame: %w", err)
			}
			if pending == nil || f.req != pending.req {
				return fmt.Errorf("cluster: limb frame for unknown request %d", f.req)
			}
			s.absorb(pending, f)
			for _, l := range f.limbs {
				w.Params.Ring.PutLimb(l)
			}
			if pending.got == pending.frames {
				if err := s.finish(pending); err != nil {
					return err
				}
				pending = nil
			}
		default:
			return fmt.Errorf("cluster: unexpected frame type %#x", typ)
		}
		// Every decoder above copies what it keeps out of the payload.
		putFrameBuf(payload)
	}
}

func (s *session) send(typ byte, payload []byte) error {
	if err := WriteFrame(s.bw, typ, payload); err != nil {
		return err
	}
	return s.bw.Flush()
}

// begin validates a keyswitch request and sets up its pending state. A
// request that cannot start latches err; its announced limb frames are
// still consumed before the error goes back.
func (s *session) begin(m ksBeginMsg) *pendingKS {
	p := &pendingKS{req: m.req, level: int(m.level), frames: int(m.frames)}
	key, ok := s.keys[m.keyID]
	if !ok {
		p.err = fmt.Errorf("unknown key id %d (coordinator must push it first)", m.keyID)
		return p
	}
	if p.pl, p.err = s.plan(p.level); p.err != nil {
		return p
	}
	if p.run, p.err = p.pl.Start(key); p.err != nil {
		return p
	}
	if p.pl.Digits() != p.frames {
		p.err = fmt.Errorf("request announces %d digit frames, level %d has %d digits", p.frames, p.level, p.pl.Digits())
	}
	return p
}

// plan returns the chip's keyswitch plan at level l, compiling it once per
// session: the plan owns the chain limbs the modular partition gives the
// chip.
func (s *session) plan(l int) (*ckks.KSPlan, error) {
	if l < 0 || l >= len(s.plans) {
		return nil, fmt.Errorf("level %d out of range [0,%d]", l, len(s.plans)-1)
	}
	if s.plans[l] == nil {
		mine := keyswitch.ChipLimbs(s.chip, l, s.nChips)
		if len(mine) == 0 {
			return nil, fmt.Errorf("chip %d owns no limbs at level %d", s.chip, l)
		}
		pl, err := s.w.Params.KSPlanFor(l, mine)
		if err != nil {
			return nil, err
		}
		s.plans[l] = pl
	}
	return s.plans[l], nil
}

// absorb folds one digit frame into the pending keyswitch: the digit's
// inner-product term is computed immediately, so the chip computes digit d
// while the coordinator is still sending digit d+1.
func (s *session) absorb(p *pendingKS, f limbFrame) {
	p.got++
	if p.err != nil {
		return // consume remaining frames silently; error already latched
	}
	// The coordinator streams digits in order, each exactly once. A
	// duplicated frame would otherwise be absorbed twice, reach the
	// announced frame count early and ship a wrong result under a valid
	// CRC and request id.
	if int(f.digit) != p.got-1 {
		p.err = fmt.Errorf("digit frame %d arrived in position %d (duplicated or reordered)", f.digit, p.got-1)
		return
	}
	// In range: a frame's position is below the announced count, which
	// begin checked against the plan's digit count.
	lo, hi, _ := s.w.Params.DigitRange(int(f.digit), p.level)
	if len(f.chain) != hi-lo {
		p.err = fmt.Errorf("digit %d carries %d limbs, want %d", f.digit, len(f.chain), hi-lo)
		return
	}
	for i, j := range f.chain {
		if j != lo+i {
			p.err = fmt.Errorf("digit %d limb %d has chain index %d, want %d", f.digit, i, j, lo+i)
			return
		}
	}
	p.err = p.run.AbsorbCoeff(int(f.digit), f.limbs)
}

// finish completes the keyswitch and sends the chip's owned output limbs
// (or the latched error) back. The chip absorbed every input limb and owns
// len(Owned()) of them, so the rest crossed a chip boundary (CommStats
// units).
func (s *session) finish(p *pendingKS) error {
	defer p.run.Release()
	if p.err == nil {
		down0, down1, err := p.run.Finish()
		if err == nil {
			owned := p.pl.Owned()
			res := encodeKSResult(ksResultMsg{
				req:    p.req,
				moved:  uint32(p.level + 1 - len(owned)),
				chain0: owned, limbs0: down0.Limbs,
				chain1: owned, limbs1: down1.Limbs,
			})
			r := s.w.Params.Ring
			r.PutPoly(down0)
			r.PutPoly(down1)
			err = s.send(msgKSResult, res)
			putFrameBuf(res)
			return err
		}
		p.err = err
	}
	// p.err goes out as its text, with nothing put in front: a refusal
	// from KSPlan.Start begins with ckks.ErrNoKeySwitchPlan's text, and
	// that prefix is how the coordinator (remoteError.Is) tells the
	// request's own error from a lost worker.
	return s.send(msgError, appendStr(appendU64(nil, p.req), p.err.Error()))
}

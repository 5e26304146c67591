// Package chaos is the deterministic fault-injection layer of the
// scale-out runtime: it wraps cluster transports and perturbs the byte
// stream with the failure modes a real fleet exhibits — dropped frames,
// delivery delays, partial writes, bit flips, duplicated frames and
// mid-collective disconnects — according to a schedule that is a pure
// function of (seed, fault site, frame ordinal).
//
// Determinism is the point: every fault site (one direction of one worker
// link, e.g. "w0/tx") owns its own PRNG seeded from the global seed and
// the site name, and consumes a fixed number of draws per frame. A
// failing soak run therefore replays exactly from its seed — the fault
// trace, not just the fault counts, is reproducible (TestScheduleReproducible).
//
// The injector sits below the wire codec, so everything above it — CRC
// verification, typed ErrCorruptFrame, redial+retry, degradation,
// circuit breaking, load shedding — is exercised as production code, not
// as test doubles.
package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cinnamon/internal/cluster"
)

// Kind enumerates the injectable fault types.
type Kind int

const (
	// None is the no-fault outcome of a schedule decision.
	None Kind = iota
	// Drop discards a frame entirely (the peer sees a stall, then a
	// deadline).
	Drop
	// Delay holds a frame for a sampled duration before delivery.
	Delay
	// Partial delivers a strict prefix of a frame, then severs the
	// connection (the mid-write crash).
	Partial
	// BitFlip flips one bit inside the frame body (type, payload or CRC
	// trailer — never the length prefix, so the stream stays framed and
	// the corruption must be caught by the checksum, not by accident).
	BitFlip
	// Duplicate delivers a frame twice.
	Duplicate
	// Disconnect severs the connection between frames.
	Disconnect

	numKinds
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Partial:
		return "partial"
	case BitFlip:
		return "bitflip"
	case Duplicate:
		return "duplicate"
	case Disconnect:
		return "disconnect"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Kinds lists the injectable fault kinds (excluding None), in schedule
// order.
func Kinds() []Kind {
	return []Kind{Drop, Delay, Partial, BitFlip, Duplicate, Disconnect}
}

// Rates are per-frame fault probabilities, evaluated in Kinds() order
// (their sum must be ≤ 1; the remainder is the no-fault outcome).
type Rates struct {
	Drop       float64
	Delay      float64
	Partial    float64
	BitFlip    float64
	Duplicate  float64
	Disconnect float64
}

func (r Rates) rate(k Kind) float64 {
	switch k {
	case Drop:
		return r.Drop
	case Delay:
		return r.Delay
	case Partial:
		return r.Partial
	case BitFlip:
		return r.BitFlip
	case Duplicate:
		return r.Duplicate
	case Disconnect:
		return r.Disconnect
	}
	return 0
}

// DefaultRates is a mixed profile that exercises every fault kind within
// a short soak: mostly-healthy traffic with a steady trickle of each
// failure mode. Severing faults (partial, disconnect) are rarer because
// each one costs a redial round trip.
func DefaultRates() Rates {
	return Rates{
		Drop:       0.010,
		Delay:      0.030,
		Partial:    0.008,
		BitFlip:    0.030,
		Duplicate:  0.030,
		Disconnect: 0.008,
	}
}

// Config parameterizes an Injector.
type Config struct {
	// Seed is the schedule seed; the same seed replays the same per-site
	// fault sequence.
	Seed int64
	// Rates are the per-frame fault probabilities.
	Rates Rates
	// DelayMin/DelayMax bound a Delay fault's hold time (defaults
	// 1ms–20ms).
	DelayMin, DelayMax time.Duration
}

// Fault is one realized schedule decision at a fault site.
type Fault struct {
	Site string // e.g. "w0/tx"
	Seq  int    // frame ordinal at that site (counted while enabled)
	Kind Kind
}

// Injector owns the fault schedule and wraps dialers with it. It starts
// disabled — wrapped connections pass traffic through untouched and
// consume no schedule draws — so a harness can warm up cleanly and then
// flip chaos on.
type Injector struct {
	cfg     Config
	enabled atomic.Bool

	mu     sync.Mutex
	sites  map[string]*siteState
	trace  []Fault
	counts [numKinds]atomic.Int64
}

// siteState is one fault site's private schedule stream. Sites survive
// reconnects: the site is named for the link direction, not the
// connection, so a redialed session continues the same schedule.
type siteState struct {
	mu  sync.Mutex
	rng *rand.Rand
	seq int
}

// NewInjector builds a disabled injector over cfg.
func NewInjector(cfg Config) *Injector {
	if cfg.DelayMin <= 0 {
		cfg.DelayMin = time.Millisecond
	}
	if cfg.DelayMax < cfg.DelayMin {
		cfg.DelayMax = 20 * time.Millisecond
	}
	return &Injector{cfg: cfg, sites: map[string]*siteState{}}
}

// SetEnabled turns fault injection on or off. Disabled periods consume no
// schedule draws, so the schedule is invariant to how long a harness
// warms up or cools down.
func (in *Injector) SetEnabled(v bool) { in.enabled.Store(v) }

// Counts returns the number of faults injected so far, per kind.
func (in *Injector) Counts() map[Kind]int64 {
	out := map[Kind]int64{}
	for _, k := range Kinds() {
		out[k] = in.counts[k].Load()
	}
	return out
}

// Total returns the total number of faults injected so far.
func (in *Injector) Total() int64 {
	var t int64
	for _, k := range Kinds() {
		t += in.counts[k].Load()
	}
	return t
}

// Trace returns a copy of the realized fault trace (site, ordinal, kind),
// ordered by injection time. Sorting by (Site, Seq) yields the canonical
// per-site schedule for replay comparison.
func (in *Injector) Trace() []Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Fault, len(in.trace))
	copy(out, in.trace)
	return out
}

// CanonicalTrace is Trace sorted by (Site, Seq) — identical across runs
// with the same seed and rates regardless of goroutine interleaving.
func (in *Injector) CanonicalTrace() []Fault {
	t := in.Trace()
	sort.Slice(t, func(i, j int) bool {
		if t[i].Site != t[j].Site {
			return t[i].Site < t[j].Site
		}
		return t[i].Seq < t[j].Seq
	})
	return t
}

func (in *Injector) site(name string) *siteState {
	in.mu.Lock()
	defer in.mu.Unlock()
	s, ok := in.sites[name]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(name))
		s = &siteState{rng: rand.New(rand.NewSource(in.cfg.Seed ^ int64(h.Sum64())))}
		in.sites[name] = s
	}
	return s
}

// decision is one schedule outcome plus the magnitudes a fault needs.
type decision struct {
	kind  Kind
	delay time.Duration
	pos   float64 // in [0,1): bit/cut position within the frame body
}

// decide consumes exactly three draws from the site's stream per frame
// (kind, magnitude, position) whatever the outcome, so the schedule at
// ordinal n is a pure function of (seed, site, n).
func (in *Injector) decide(name string) decision {
	if !in.enabled.Load() {
		return decision{kind: None}
	}
	s := in.site(name)
	s.mu.Lock()
	a, b, c := s.rng.Float64(), s.rng.Float64(), s.rng.Float64()
	seq := s.seq
	s.seq++
	s.mu.Unlock()

	d := decision{kind: None, pos: c}
	acc := 0.0
	for _, k := range Kinds() {
		acc += in.cfg.Rates.rate(k)
		if a < acc {
			d.kind = k
			break
		}
	}
	if d.kind == Delay {
		d.delay = in.cfg.DelayMin + time.Duration(b*float64(in.cfg.DelayMax-in.cfg.DelayMin))
	}
	if d.kind != None {
		in.counts[d.kind].Add(1)
		in.mu.Lock()
		in.trace = append(in.trace, Fault{Site: name, Seq: seq, Kind: d.kind})
		in.mu.Unlock()
	}
	return d
}

// WrapDialer wraps a cluster dialer so every connection it produces runs
// through the injector. name identifies the fault site pair ("<name>/tx"
// for coordinator→worker bytes, "<name>/rx" for worker→coordinator).
func (in *Injector) WrapDialer(name string, d cluster.Dialer) cluster.Dialer {
	return &faultDialer{in: in, name: name, next: d}
}

type faultDialer struct {
	in   *Injector
	name string
	next cluster.Dialer
}

func (d *faultDialer) Dial(ctx context.Context) (net.Conn, error) {
	conn, err := d.next.Dial(ctx)
	if err != nil {
		return nil, err
	}
	return &faultConn{
		Conn: conn,
		in:   d.in,
		tx:   dirState{site: d.name + "/tx"},
		rx:   dirState{site: d.name + "/rx"},
	}, nil
}

// errInjected is the sticky error a severing fault (partial, disconnect)
// leaves on the connection: distinguishable in logs from organic
// transport failures, handled identically by the engine (drop + redial).
type errInjected struct{ site string }

func (e *errInjected) Error() string {
	return "chaos: injected disconnect at " + e.site
}

// dirState is the frame-reassembly state of one stream direction.
type dirState struct {
	site string
	acc  []byte // bytes accumulated toward the next frame boundary
	out  []byte // rx only: faulted bytes awaiting delivery to the reader
	raw  bool   // stream lost framing (implausible length): pass through
	err  error  // sticky severing error
}

// frameLen reports the total wire length of the frame starting at b[0],
// or 0 if more bytes are needed, or -1 if the length prefix is
// implausible (the direction then degrades to raw passthrough — the
// injector refuses to misframe a stream it cannot parse).
func frameLen(b []byte) int {
	if len(b) < 4 {
		return 0
	}
	n := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	if n < 5 || n > 64<<20 {
		return -1
	}
	return 4 + int(n)
}

// faultConn applies the schedule to both directions of one connection.
// The engine serializes RPCs per link, so each direction is single-
// goroutine and needs no locking of its own.
type faultConn struct {
	net.Conn
	in *Injector
	tx dirState
	rx dirState
}

// Write intercepts coordinator→worker bytes, reassembles frames and
// applies one schedule decision per complete frame. It always accounts
// for the full caller buffer (a dropped frame is an invisible network
// loss, not a caller error).
func (c *faultConn) Write(p []byte) (int, error) {
	if c.tx.err != nil {
		return 0, c.tx.err
	}
	if !c.in.enabled.Load() && len(c.tx.acc) == 0 {
		return c.Conn.Write(p) // fast path: chaos off, no partial frame pending
	}
	if c.tx.raw {
		return c.Conn.Write(p)
	}
	c.tx.acc = append(c.tx.acc, p...)
	for {
		n := frameLen(c.tx.acc)
		if n == -1 {
			c.tx.raw = true
			if _, err := c.Conn.Write(c.tx.acc); err != nil {
				return len(p), err
			}
			c.tx.acc = nil
			return len(p), nil
		}
		if n == 0 || len(c.tx.acc) < n {
			return len(p), nil // wait for the rest of the frame
		}
		frame := c.tx.acc[:n:n]
		c.tx.acc = c.tx.acc[n:]
		if err := c.applyTx(frame); err != nil {
			c.tx.err = err
			return len(p), err
		}
	}
}

func (c *faultConn) applyTx(frame []byte) error {
	d := c.in.decide(c.tx.site)
	switch d.kind {
	case Drop:
		return nil
	case Delay:
		time.Sleep(d.delay)
	case Partial:
		cut := 1 + int(d.pos*float64(len(frame)-1))
		if cut >= len(frame) {
			cut = len(frame) - 1
		}
		c.Conn.Write(frame[:cut])
		c.Conn.Close()
		return &errInjected{site: c.tx.site}
	case BitFlip:
		frame = flipBit(frame, d.pos)
	case Duplicate:
		if _, err := c.Conn.Write(frame); err != nil {
			return err
		}
	case Disconnect:
		c.Conn.Close()
		return &errInjected{site: c.tx.site}
	}
	_, err := c.Conn.Write(frame)
	return err
}

// Read intercepts worker→coordinator bytes with the same per-frame
// schedule. It blocks until at least one post-fault byte is deliverable
// (or the underlying read fails), honoring whatever read deadline the
// engine armed on the connection.
func (c *faultConn) Read(p []byte) (int, error) {
	for {
		if len(c.rx.out) > 0 {
			n := copy(p, c.rx.out)
			c.rx.out = c.rx.out[n:]
			return n, nil
		}
		if c.rx.err != nil {
			return 0, c.rx.err
		}
		if !c.in.enabled.Load() && len(c.rx.acc) == 0 {
			return c.Conn.Read(p) // fast path: chaos off, stream at a boundary
		}
		buf := make([]byte, 64<<10)
		n, err := c.Conn.Read(buf)
		if n > 0 {
			if c.rx.raw {
				c.rx.out = append(c.rx.out, buf[:n]...)
				continue
			}
			c.rx.acc = append(c.rx.acc, buf[:n]...)
			c.drainRx()
		}
		if err != nil {
			// Flush any trailing partial frame raw, then surface the error.
			c.rx.out = append(c.rx.out, c.rx.acc...)
			c.rx.acc = nil
			if len(c.rx.out) > 0 {
				c.rx.err = err
				continue
			}
			return 0, err
		}
	}
}

// drainRx moves complete frames from acc to out, applying one schedule
// decision each.
func (c *faultConn) drainRx() {
	for c.rx.err == nil {
		n := frameLen(c.rx.acc)
		if n == -1 {
			c.rx.raw = true
			c.rx.out = append(c.rx.out, c.rx.acc...)
			c.rx.acc = nil
			return
		}
		if n == 0 || len(c.rx.acc) < n {
			return
		}
		frame := c.rx.acc[:n:n]
		c.rx.acc = c.rx.acc[n:]
		d := c.in.decide(c.rx.site)
		switch d.kind {
		case Drop:
			// The frame vanishes; the engine's RPC deadline fires.
		case Delay:
			time.Sleep(d.delay)
			c.rx.out = append(c.rx.out, frame...)
		case Partial:
			cut := 1 + int(d.pos*float64(len(frame)-1))
			if cut >= len(frame) {
				cut = len(frame) - 1
			}
			c.rx.out = append(c.rx.out, frame[:cut]...)
			c.Conn.Close()
			c.rx.err = &errInjected{site: c.rx.site}
		case BitFlip:
			c.rx.out = append(c.rx.out, flipBit(frame, d.pos)...)
		case Duplicate:
			c.rx.out = append(c.rx.out, frame...)
			c.rx.out = append(c.rx.out, frame...)
		case Disconnect:
			c.Conn.Close()
			c.rx.err = &errInjected{site: c.rx.site}
		default:
			c.rx.out = append(c.rx.out, frame...)
		}
	}
}

// flipBit returns frame with one bit flipped inside the body (past the
// 4-byte length prefix), at a position derived from pos.
func flipBit(frame []byte, pos float64) []byte {
	body := len(frame) - 4
	if body <= 0 {
		return frame
	}
	bitIdx := int(pos * float64(8*body))
	if bitIdx >= 8*body {
		bitIdx = 8*body - 1
	}
	out := make([]byte, len(frame))
	copy(out, frame)
	out[4+bitIdx/8] ^= 1 << (bitIdx % 8)
	return out
}

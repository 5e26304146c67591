// Package cluster is the scale-out runtime of the Cinnamon paper rendered
// over real processes: a coordinator partitions ciphertext limbs across N
// worker processes (the paper's chips) and executes the input-broadcast
// keyswitch collective of §4.3.1 (Fig. 8b) as a genuine network collective
// over a length-prefixed binary wire protocol. The output aggregation of
// Fig. 8c runs only in-process (internal/keyswitch): no serving path can
// hold the modular-digit key it needs, so the wire carries one collective.
//
// Workers run exactly the per-chip kernel of internal/keyswitch (ChipIB),
// which is what makes a distributed keyswitch bit-exact with the
// in-process engine and with the sequential reference. Communication is
// metered twice: in the paper's units (limbs crossing a chip boundary,
// CommStats) and in transport bytes on the wire.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"net"
	"sync/atomic"
	"time"

	"cinnamon/internal/ckks"
)

// Wire format v4: every frame is [u32 LE length][u8 type][payload]
// [u32 LE crc32c] where length = 1 + len(payload) + 4 and the CRC-32C
// (Castagnoli) covers type||payload. Integers are little-endian
// throughout; limb data is raw u64 coefficients. The codec never trusts a
// length field beyond maxFrame and never allocates more than the bytes
// actually received, so a truncated or hostile stream fails with an error
// instead of a panic or an over-allocation (FuzzReadFrame,
// FuzzDecodeLimbs). A frame whose checksum does not match fails with a
// typed ErrCorruptFrame — corruption is detected and the session redialed,
// never silently accepted (peers of another version are rejected at the
// versioned handshake).
//
// Every worker reply leads with the u64 id of the exchange it answers: the
// parameter digest for a hello, the key id for a key push or evict, the
// nonce for a ping, the request id for a keyswitch. Ids come from one
// sequence per coordinator, so a reply that is not the awaited one is a
// stale duplicate of a settled exchange (parseReply).
const (
	// maxFrame bounds one frame (64 MiB): comfortably above any real
	// payload (a full-width result at logN=17, 40 limbs is ~42 MiB) while
	// keeping a corrupted length prefix harmless.
	maxFrame = 64 << 20

	// frameOverhead is the non-payload byte count of a frame: the type
	// byte plus the CRC-32C trailer (the u32 length prefix is not counted
	// by the length field itself).
	frameOverhead = 1 + crcLen
	crcLen        = 4

	protoVersion = 4          // v4: a key push carries no digit partition, a keyswitch no algorithm
	helloMagic   = 0x434e4d4e // "CNMN"
)

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64), shared by WriteFrame and ReadFrame.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptFrame is returned by ReadFrame when a frame's CRC-32C trailer
// does not match its contents. It is a session-fatal transport error: the
// caller must drop the connection and redial, because after a corrupt
// frame the stream position can no longer be trusted.
var ErrCorruptFrame = errors.New("cluster: corrupt frame (crc32c mismatch)")

// corruptFrames counts CRC-mismatched frames detected process-wide (both
// coordinator and worker sides when they share a process, as the chaos
// soak does). Exposed in Stats snapshots as corrupt_frames_detected.
var corruptFrames atomic.Int64

// CorruptFrames reports the number of corrupt frames detected by this
// process since start.
func CorruptFrames() int64 { return corruptFrames.Load() }

// Frame types.
const (
	msgHello    byte = 0x01 // coordinator → worker: version, digest, topology
	msgHelloAck byte = 0x02 // worker → coordinator: digest echo
	msgSetKey   byte = 0x03 // coordinator → worker: evaluation key push
	msgKeyAck   byte = 0x04 // worker → coordinator
	msgKSBegin  byte = 0x05 // coordinator → worker: start one keyswitch
	msgLimbs    byte = 0x06 // coordinator → worker: one digit's limb data
	msgKSResult byte = 0x07 // worker → coordinator: chip output limbs
	msgPing     byte = 0x08 // heartbeat
	msgPong     byte = 0x09
	msgError    byte = 0x0a // worker → coordinator: id, message of a refused exchange
	msgKeyEvict byte = 0x0b // coordinator → worker: drop a pushed key
	msgKeyGone  byte = 0x0c // worker → coordinator: evict ack
)

// WriteFrame writes one frame to w, appending the CRC-32C trailer. The
// frame is assembled in a pooled buffer and issued as a single Write — a
// warm call allocates nothing and never splits a frame across writes.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+frameOverhead > maxFrame {
		return fmt.Errorf("cluster: frame too large (%d bytes)", len(payload)+frameOverhead)
	}
	b := getFrameBuf(4 + 1 + len(payload) + crcLen)
	b = appendU32(b, uint32(len(payload)+frameOverhead))
	b = append(b, typ)
	b = append(b, payload...)
	crc := crc32.Update(crc32.Checksum(b[4:5], crcTable), crcTable, payload)
	b = appendU32(b, crc)
	_, err := w.Write(b)
	putFrameBuf(b)
	return err
}

// frameBodyLen applies the length rule to a frame's u32 length prefix and
// returns the byte count that follows the type byte (payload plus CRC
// trailer). ReadFrame and SplitFrame both go through it.
func frameBodyLen(n uint32) (int, error) {
	if n < frameOverhead {
		return 0, fmt.Errorf("cluster: frame length %d shorter than %d-byte minimum", n, frameOverhead)
	}
	if n > maxFrame {
		return 0, fmt.Errorf("cluster: frame length %d exceeds %d-byte limit", n, maxFrame)
	}
	return int(n - 1), nil
}

// openFrame checks body's CRC-32C trailer against typ||payload (typ is
// the one-byte type field) and returns the payload. ReadFrame and
// SplitFrame both go through it, so the stream and the in-place paths
// apply one integrity rule.
func openFrame(typ, body []byte) ([]byte, error) {
	payload := body[:len(body)-crcLen]
	got := binary.LittleEndian.Uint32(body[len(body)-crcLen:])
	if crc := crc32.Update(crc32.Checksum(typ, crcTable), crcTable, payload); got != crc {
		corruptFrames.Add(1)
		return nil, fmt.Errorf("%w: type %#x, %d payload bytes", ErrCorruptFrame, typ[0], len(payload))
	}
	return payload, nil
}

// ReadFrame reads one frame, rejecting implausible lengths before
// allocating and verifying the CRC-32C trailer before handing the payload
// to any decoder. A checksum mismatch returns an error wrapping
// ErrCorruptFrame.
//
// The body is not sized from the length prefix alone: a frame longer than
// readChunk is read through pooled buffers that double as bytes arrive, and
// only once the announced length is within twice the bytes received is the
// caller's buffer allocated at its exact size. A lying prefix on a short
// stream therefore costs one pooled chunk, the buffers held never exceed
// about twice the bytes received, and a warm read allocates the payload
// once.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	want, err := frameBodyLen(binary.LittleEndian.Uint32(hdr[:4]))
	if err != nil {
		return 0, nil, err
	}
	body, err := readBody(r, want)
	if err != nil {
		return 0, nil, err
	}
	if payload, err = openFrame(hdr[4:5], body); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// readBody reads exactly want bytes (see ReadFrame for the growth rule).
func readBody(r io.Reader, want int) ([]byte, error) {
	if want <= readChunk {
		body := make([]byte, want)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	buf := getFrameBuf(readChunk)[:readChunk]
	have := 0
	for {
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			putFrameBuf(buf)
			return nil, err
		}
		have = len(buf)
		if 2*have >= want {
			break
		}
		next := getFrameBuf(2 * have)[:2*have]
		copy(next, buf)
		putFrameBuf(buf)
		buf = next
	}
	body := make([]byte, want)
	copy(body, buf)
	putFrameBuf(buf)
	if _, err := io.ReadFull(r, body[have:]); err != nil {
		return nil, err
	}
	return body, nil
}

// SplitFrame checks the frame at the start of b in place, with the same
// length and CRC-32C rule as ReadFrame, and returns its type, its payload
// (a subslice of b, not a copy) and the bytes after it. A b that ends
// inside the frame fails with io.ErrUnexpectedEOF.
func SplitFrame(b []byte) (typ byte, payload, rest []byte, err error) {
	if len(b) < 5 {
		return 0, nil, nil, io.ErrUnexpectedEOF
	}
	want, err := frameBodyLen(binary.LittleEndian.Uint32(b[:4]))
	if err != nil {
		return 0, nil, nil, err
	}
	if len(b)-5 < want {
		return 0, nil, nil, io.ErrUnexpectedEOF
	}
	if payload, err = openFrame(b[4:5], b[5:5+want]); err != nil {
		return 0, nil, nil, err
	}
	return b[4], payload, b[5+want:], nil
}

// frameReader is the io.Reader side of ReadFrameTimeout: a bufio-style
// reader whose Peek can block indefinitely while its underlying conn
// enforces deadlines once a frame has started.
type frameReader interface {
	io.Reader
	Peek(n int) ([]byte, error)
}

// ReadFrameTimeout reads one frame from br, allowing the connection to
// idle indefinitely *between* frames but bounding the time a peer may
// take to finish a frame it has started. The first byte is awaited with
// no deadline (Peek); once it arrives, a read deadline of d is armed on
// conn for the remainder of the frame, so a peer that sends a header and
// then stalls fails the RPC instead of wedging the session forever. The
// deadline is cleared before returning.
func ReadFrameTimeout(conn net.Conn, br frameReader, d time.Duration) (typ byte, payload []byte, err error) {
	if _, err = br.Peek(1); err != nil {
		return 0, nil, err
	}
	if d > 0 {
		if err = conn.SetReadDeadline(time.Now().Add(d)); err != nil {
			return 0, nil, err
		}
		defer conn.SetReadDeadline(time.Time{})
	}
	return ReadFrame(br)
}

// readChunk is the largest frame body ReadFrame allocates up front, and
// the first pooled buffer of a longer one.
const readChunk = 1 << 16

// cursor decodes a payload with sticky error handling: the first short
// read poisons every later access, and done() reports it (plus trailing
// garbage).
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if n < 0 || len(c.b) < n {
		c.err = io.ErrUnexpectedEOF
		return false
	}
	return true
}

func (c *cursor) u8() byte {
	if !c.need(1) {
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) u32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

func (c *cursor) u64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

// limb decodes n u64 coefficients. The byte-count check precedes the
// allocation, so a lying count field cannot over-allocate.
func (c *cursor) limb(n int) []uint64 {
	if !c.need(8 * n) {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(c.b[8*i:])
	}
	c.b = c.b[8*n:]
	return out
}

func (c *cursor) str() string {
	n := int(c.u32())
	if !c.need(n) {
		return ""
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s
}

func (c *cursor) done() error {
	if c.err == nil && len(c.b) != 0 {
		return fmt.Errorf("cluster: %d trailing bytes in frame", len(c.b))
	}
	return c.err
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendLimb(b []byte, limb []uint64) []byte {
	off := len(b)
	b = append(b, make([]byte, 8*len(limb))...)
	for i, v := range limb {
		binary.LittleEndian.PutUint64(b[off+8*i:], v)
	}
	return b
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// ParamsDigest is the negotiation fingerprint of a parameter set: ring
// dimension, default scale and the exact chain + special moduli. A
// coordinator and worker whose digests differ would compute different
// (wrong) limbs, so the handshake refuses the pairing.
func ParamsDigest(p *ckks.Parameters) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(p.N()))
	put(math.Float64bits(p.DefaultScale()))
	for _, q := range p.QBasis.Moduli {
		put(q)
	}
	put(0) // basis separator
	for _, q := range p.PBasis.Moduli {
		put(q)
	}
	return h.Sum64()
}

// --- hello ---

type helloMsg struct {
	digest uint64
	nChips uint32
	chip   uint32
}

func encodeHello(h helloMsg) []byte {
	b := make([]byte, 0, 24)
	b = appendU32(b, helloMagic)
	b = append(b, protoVersion)
	b = appendU64(b, h.digest)
	b = appendU32(b, h.nChips)
	b = appendU32(b, h.chip)
	return b
}

func decodeHello(p []byte) (helloMsg, error) {
	c := cursor{b: p}
	magic := c.u32()
	ver := c.u8()
	h := helloMsg{digest: c.u64(), nChips: c.u32(), chip: c.u32()}
	if err := c.done(); err != nil {
		return helloMsg{}, err
	}
	if magic != helloMagic {
		return helloMsg{}, fmt.Errorf("cluster: bad hello magic %#x", magic)
	}
	if ver != protoVersion {
		return helloMsg{}, fmt.Errorf("cluster: protocol version %d, want %d", ver, protoVersion)
	}
	if h.nChips == 0 || h.chip >= h.nChips {
		return helloMsg{}, fmt.Errorf("cluster: invalid topology chip %d of %d", h.chip, h.nChips)
	}
	return h, nil
}

// --- setKey ---

// encodeSetKey serializes an evaluation key push: [u64 key id][EvalKey
// image]. The image carries no digit partition, so only default-partition
// keys cross the wire (the engine refuses any other before a push).
func encodeSetKey(id uint64, k *ckks.EvalKey) []byte {
	return k.Append(appendU64(make([]byte, 0, 8+k.EncodedLen()), id))
}

func decodeSetKey(p []byte, params *ckks.Parameters) (uint64, *ckks.EvalKey, error) {
	c := cursor{b: p}
	id := c.u64()
	if c.err != nil {
		return 0, nil, c.err
	}
	k, err := ckks.ReadEvalKey(readerBuf{&c.b}, params)
	if err != nil {
		return 0, nil, err
	}
	return id, k, nil
}

// readerBuf adapts the ckks decoder (an io.Reader) to an in-memory frame
// payload without an extra copy layer.
type readerBuf struct{ b *[]byte }

func (r readerBuf) Read(p []byte) (int, error) {
	if len(*r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, *r.b)
	*r.b = (*r.b)[n:]
	return n, nil
}

// --- ksBegin ---

type ksBeginMsg struct {
	req    uint64
	keyID  uint64
	level  uint32
	frames uint32 // msgLimbs frames that follow
}

// encodeKSBegin serializes a keyswitch kickoff into a pooled buffer; the
// caller releases it with putFrameBuf after the frame is written.
func encodeKSBegin(m ksBeginMsg) []byte {
	b := getFrameBuf(32)
	b = appendU64(b, m.req)
	b = appendU64(b, m.keyID)
	b = appendU32(b, m.level)
	b = appendU32(b, m.frames)
	return b
}

func decodeKSBegin(p []byte) (ksBeginMsg, error) {
	c := cursor{b: p}
	m := ksBeginMsg{req: c.u64(), keyID: c.u64(), level: c.u32(), frames: c.u32()}
	if err := c.done(); err != nil {
		return ksBeginMsg{}, err
	}
	return m, nil
}

// --- limbs ---

type limbFrame struct {
	req   uint64
	digit uint32 // hybrid digit index
	chain []int  // chain index of each limb
	limbs [][]uint64
}

// encodeLimbs serializes one digit's limb data into a pooled buffer; the
// caller releases it with putFrameBuf after the frame is written.
func encodeLimbs(req uint64, digit uint32, chain []int, limbs [][]uint64) []byte {
	n := 0
	if len(limbs) > 0 {
		n = len(limbs[0])
	}
	b := getFrameBuf(16 + len(limbs)*(4+8*n))
	b = appendU64(b, req)
	b = appendU32(b, digit)
	b = appendU32(b, uint32(len(limbs)))
	for i, limb := range limbs {
		b = appendU32(b, uint32(chain[i]))
		b = appendLimb(b, limb)
	}
	return b
}

// decodeLimbs parses a limb frame carrying n-coefficient limbs.
func decodeLimbs(p []byte, n int) (limbFrame, error) {
	c := cursor{b: p}
	f := limbFrame{req: c.u64(), digit: c.u32()}
	count := int(c.u32())
	if c.err == nil && count*(4+8*n) != len(c.b) {
		return limbFrame{}, fmt.Errorf("cluster: limb frame carries %d bytes, want %d limbs of %d coeffs", len(c.b), count, n)
	}
	f.chain = make([]int, 0, count)
	f.limbs = make([][]uint64, 0, count)
	for i := 0; i < count; i++ {
		f.chain = append(f.chain, int(c.u32()))
		limb := c.limb(n)
		if c.err != nil {
			break
		}
		f.limbs = append(f.limbs, limb)
	}
	if err := c.done(); err != nil {
		return limbFrame{}, err
	}
	return f, nil
}

// --- ksResult ---

type ksResultMsg struct {
	req            uint64
	moved          uint32 // limbs this chip absorbed/shipped across a boundary
	chain0, chain1 []int
	limbs0, limbs1 [][]uint64
}

// encodeKSResult serializes a chip's output limbs into a pooled buffer;
// the caller releases it with putFrameBuf after the frame is written.
func encodeKSResult(m ksResultMsg) []byte {
	n := 0
	if len(m.limbs0) > 0 {
		n = len(m.limbs0[0])
	}
	b := getFrameBuf(24 + (len(m.limbs0)+len(m.limbs1))*(4+8*n))
	b = appendU64(b, m.req)
	b = appendU32(b, m.moved)
	for half := 0; half < 2; half++ {
		chain, limbs := m.chain0, m.limbs0
		if half == 1 {
			chain, limbs = m.chain1, m.limbs1
		}
		b = appendU32(b, uint32(len(limbs)))
		for i, limb := range limbs {
			b = appendU32(b, uint32(chain[i]))
			b = appendLimb(b, limb)
		}
	}
	return b
}

func decodeKSResult(p []byte, n int) (ksResultMsg, error) {
	c := cursor{b: p}
	m := ksResultMsg{req: c.u64(), moved: c.u32()}
	for half := 0; half < 2; half++ {
		count := int(c.u32())
		if c.err == nil && count*(4+8*n) > len(c.b) {
			return ksResultMsg{}, fmt.Errorf("cluster: result frame truncated (%d limbs announced, %d bytes left)", count, len(c.b))
		}
		chain := make([]int, 0, count)
		limbs := make([][]uint64, 0, count)
		for i := 0; i < count; i++ {
			chain = append(chain, int(c.u32()))
			limb := c.limb(n)
			if c.err != nil {
				break
			}
			limbs = append(limbs, limb)
		}
		if half == 0 {
			m.chain0, m.limbs0 = chain, limbs
		} else {
			m.chain1, m.limbs1 = chain, limbs
		}
	}
	if err := c.done(); err != nil {
		return ksResultMsg{}, err
	}
	return m, nil
}

// --- ids and replies ---

// decodeID decodes a payload that is one u64 id and nothing else: a ping,
// a key evict, and every acknowledgement (helloAck, keyAck, pong,
// keyGone). The ack payloads are appendU64(nil, id).
func decodeID(p []byte) (uint64, error) {
	c := cursor{b: p}
	id := c.u64()
	return id, c.done()
}

// parseReply applies the reply rule to one frame read while exchange id
// awaits a want reply. done reports whether the frame answers it: a want
// or msgError frame that leads with id. Any other frame is a stale
// duplicate of a settled exchange and the caller reads on. A msgError
// answer ([u64 id][u32 len][message]) returns *remoteError; a frame of an
// answering type too short to carry an id, or an acknowledgement with
// bytes after its id, is a protocol error. A ksResult payload is left to
// decodeKSResult.
func parseReply(typ byte, payload []byte, id uint64, want byte) (done bool, err error) {
	if typ != want && typ != msgError {
		return false, nil
	}
	c := cursor{b: payload}
	got := c.u64()
	switch {
	case c.err != nil:
		return true, fmt.Errorf("cluster: reply frame %#x carries no id: %w", typ, c.err)
	case got != id:
		return false, nil
	case typ == msgError:
		msg := c.str()
		if err := c.done(); err != nil {
			return true, err
		}
		return true, &remoteError{msg: msg}
	case want == msgKSResult:
		return true, nil
	default:
		return true, c.done()
	}
}

// remoteError is a semantic failure reported in-band by a worker. It is
// deterministic (bad key, wrong topology), so the RPC layer does not retry
// it, and it leaves the session up.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return "cluster: worker reported: " + e.msg }

package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/ring"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := WriteFrame(&buf, msgLimbs, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgLimbs || !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: type %#x payload %v", typ, got)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msgPing, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < buf.Len(); cut += 7 {
		if _, _, err := ReadFrame(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestFrameOversizedLengthRejected(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], maxFrame+1)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized frame not rejected: %v", err)
	}
}

// TestFrameLyingLengthDoesNotOverAllocate: a header announcing maxFrame on
// a 5-byte stream must fail after at most one read chunk, not allocate the
// announced size.
func TestFrameLyingLengthDoesNotOverAllocate(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], maxFrame)
	r := &meteredReader{r: bytes.NewReader(append(hdr[:], 0xAB))}
	if _, _, err := ReadFrame(r); err == nil {
		t.Fatal("lying length prefix not detected")
	}
	allocs := testing.AllocsPerRun(10, func() {
		rr := bytes.NewReader(append(hdr[:], 0xAB))
		ReadFrame(rr)
	})
	// One chunk + reader bookkeeping; anything near maxFrame/readChunk
	// allocations would mean we grew the whole announced buffer.
	if allocs > 10 {
		t.Fatalf("ReadFrame made %v allocations on a truncated frame", allocs)
	}
}

type meteredReader struct {
	r io.Reader
	n int64
}

func (m *meteredReader) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	m.n += int64(n)
	return n, err
}

// TestFrameCRCDetectsBitFlip: every single-bit flip anywhere in a frame's
// body (type byte, payload, or CRC trailer) must surface as an error —
// ErrCorruptFrame when the length prefix still parses — and never be
// delivered as a valid payload.
func TestFrameCRCDetectsBitFlip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("the coordinator must never trust these bytes blindly")
	if err := WriteFrame(&buf, msgLimbs, payload); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	before := CorruptFrames()
	flipped := 0
	for byteIdx := 4; byteIdx < len(frame); byteIdx++ { // skip the length prefix
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(frame)
			mut[byteIdx] ^= 1 << bit
			typ, got, err := ReadFrame(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted: type %#x payload %q", byteIdx, bit, typ, got)
			}
			if errors.Is(err, ErrCorruptFrame) {
				flipped++
			}
		}
	}
	if flipped == 0 {
		t.Fatal("no flip was classified as ErrCorruptFrame")
	}
	if delta := CorruptFrames() - before; delta != int64(flipped) {
		t.Fatalf("corrupt-frame counter moved by %d, want %d", delta, flipped)
	}
	// A length-prefix flip is also never accepted (it desynchronizes or
	// truncates), though it may fail as a short read rather than a CRC
	// mismatch.
	for byteIdx := 0; byteIdx < 4; byteIdx++ {
		mut := bytes.Clone(frame)
		mut[byteIdx] ^= 1
		if _, _, err := ReadFrame(bytes.NewReader(mut)); err == nil {
			t.Fatalf("length-prefix flip at byte %d accepted", byteIdx)
		}
	}
}

// TestSplitFrameMatchesReadFrame: the in-place frame check and the stream
// reader apply one rule. On every truncation and every single-bit flip of a
// two-frame buffer they accept and reject the same inputs, and agree on
// the first frame's type and payload.
func TestSplitFrameMatchesReadFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msgLimbs, []byte("first frame payload")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, msgPing, []byte{9}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	check := func(b []byte) {
		t.Helper()
		rt, rp, rerr := ReadFrame(bytes.NewReader(b))
		st, sp, rest, serr := SplitFrame(b)
		if (rerr == nil) != (serr == nil) {
			t.Fatalf("%d-byte input: ReadFrame err %v, SplitFrame err %v", len(b), rerr, serr)
		}
		if errors.Is(rerr, ErrCorruptFrame) != errors.Is(serr, ErrCorruptFrame) {
			t.Fatalf("%d-byte input: corruption classified differently: %v vs %v", len(b), rerr, serr)
		}
		if serr != nil {
			return
		}
		if rt != st || !bytes.Equal(rp, sp) {
			t.Fatalf("frames differ: %#x %q vs %#x %q", rt, rp, st, sp)
		}
		if want := len(b) - (4 + frameOverhead + len(sp)); len(rest) != want {
			t.Fatalf("SplitFrame left %d bytes, want %d", len(rest), want)
		}
	}
	for cut := 0; cut <= len(full); cut++ {
		check(full[:cut])
	}
	for i := range full {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(full)
			mut[i] ^= 1 << bit
			check(mut)
		}
	}
	_, p, rest, err := SplitFrame(full)
	if err != nil || &p[0] != &full[5] {
		t.Fatalf("SplitFrame copied the payload or failed: %v", err)
	}
	if typ, p2, rest2, err := SplitFrame(rest); err != nil || typ != msgPing || len(p2) != 1 || len(rest2) != 0 {
		t.Fatalf("second frame: %#x %v %d trailing, %v", typ, p2, len(rest2), err)
	}
}

// TestReadFrameTimeoutPartialFrame: a peer that ships a frame header and
// then stalls must fail the read within the partial-frame budget instead
// of holding the session forever. The idle wait before the first byte is
// deadline-free.
func TestReadFrameTimeoutPartialFrame(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		var hdr [5]byte
		binary.LittleEndian.PutUint32(hdr[:4], 1000) // announce a frame, never finish it
		hdr[4] = msgLimbs
		client.Write(hdr[:])
	}()
	br := bufio.NewReader(server)
	start := time.Now()
	_, _, err := ReadFrameTimeout(server, br, 50*time.Millisecond)
	if err == nil {
		t.Fatal("stalled partial frame did not error")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("partial-frame stall held the read for %v", elapsed)
	}
}

// TestReadFrameTimeoutCompleteFrame: a frame delivered promptly (even
// after an arbitrary idle gap) passes through untouched.
func TestReadFrameTimeoutCompleteFrame(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		time.Sleep(20 * time.Millisecond) // idle gap longer than... nothing: no deadline yet
		var buf bytes.Buffer
		WriteFrame(&buf, msgPing, appendU64(nil, 77))
		client.Write(buf.Bytes())
	}()
	br := bufio.NewReader(server)
	typ, payload, err := ReadFrameTimeout(server, br, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgPing {
		t.Fatalf("got frame type %#x", typ)
	}
	if nonce, err := decodeID(payload); err != nil || nonce != 77 {
		t.Fatalf("nonce %d err %v", nonce, err)
	}
}

func TestLimbsRoundTrip(t *testing.T) {
	n := 8
	chain := []int{2, 5, 8}
	limbs := [][]uint64{{1, 2, 3, 4, 5, 6, 7, 8}, {9, 10, 11, 12, 13, 14, 15, 16}, {17, 18, 19, 20, 21, 22, 23, 24}}
	p := encodeLimbs(42, 3, chain, limbs)
	f, err := decodeLimbs(p, n, freshLimbs(n))
	if err != nil {
		t.Fatal(err)
	}
	if f.req != 42 || f.digit != 3 || len(f.limbs) != 3 {
		t.Fatalf("decoded %+v", f)
	}
	for i := range limbs {
		if f.chain[i] != chain[i] {
			t.Fatalf("chain[%d] = %d, want %d", i, f.chain[i], chain[i])
		}
		for j := range limbs[i] {
			if f.limbs[i][j] != limbs[i][j] {
				t.Fatalf("limb[%d][%d] = %d, want %d", i, j, f.limbs[i][j], limbs[i][j])
			}
		}
	}
}

func TestKSResultRoundTrip(t *testing.T) {
	n := 4
	m := ksResultMsg{
		req: 7, moved: 12,
		chain0: []int{0, 3}, limbs0: [][]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}},
		chain1: []int{0, 3}, limbs1: [][]uint64{{9, 10, 11, 12}, {13, 14, 15, 16}},
	}
	out0, out1 := testPoly(4, n), testPoly(4, n)
	moved, err := decodeKSResult(encodeKSResult(m), []int{0, 3}, out0, out1)
	if err != nil {
		t.Fatal(err)
	}
	if moved != int(m.moved) {
		t.Fatalf("moved %d, want %d", moved, m.moved)
	}
	for k, j := range []int{0, 3} {
		for i := 0; i < n; i++ {
			if out0.Limbs[j][i] != m.limbs0[k][i] || out1.Limbs[j][i] != m.limbs1[k][i] {
				t.Fatalf("limb %d coefficient %d: got %d/%d, want %d/%d", j, i, out0.Limbs[j][i], out1.Limbs[j][i], m.limbs0[k][i], m.limbs1[k][i])
			}
		}
	}
	if out0.Limbs[1][0] != 0 || out1.Limbs[2][0] != 0 {
		t.Fatal("decode wrote a limb the chip does not own")
	}
	// A frame for other chain indices, or with a limb missing, is refused
	// before any limb is written.
	for _, mine := range [][]int{{0, 2}, {0}, {0, 3, 5}} {
		a, b := testPoly(6, n), testPoly(6, n)
		if _, err := decodeKSResult(encodeKSResult(m), mine, a, b); err == nil {
			t.Fatalf("result for chains %v accepted as %v", m.chain0, mine)
		}
		for j := range a.Limbs {
			if a.Limbs[j][0] != 0 || b.Limbs[j][0] != 0 {
				t.Fatalf("refused frame for %v wrote limb %d", mine, j)
			}
		}
	}
}

// freshLimbs hands decodeLimbs newly allocated n-coefficient limbs.
func freshLimbs(n int) func() []uint64 {
	return func() []uint64 { return make([]uint64, n) }
}

// testPoly is a zero poly of the given shape, for the result decoder.
func testPoly(limbs, n int) *ring.Poly {
	p := &ring.Poly{Limbs: make([][]uint64, limbs)}
	for j := range p.Limbs {
		p.Limbs[j] = make([]uint64, n)
	}
	return p
}

func TestHelloRoundTrip(t *testing.T) {
	h := helloMsg{digest: 0xdeadbeefcafe, nChips: 4, chip: 2}
	got, err := decodeHello(encodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("decoded %+v, want %+v", got, h)
	}
	// Corrupt the magic.
	bad := encodeHello(h)
	bad[0] ^= 0xff
	if _, err := decodeHello(bad); err == nil {
		t.Fatal("corrupted magic accepted")
	}
	// A version-2 peer, whose replies do not all lead with their id, and a
	// version-3 peer, whose key pushes carry a digit-set section and whose
	// keyswitch begins carry an algorithm byte.
	for _, ver := range []byte{2, 3} {
		old := encodeHello(h)
		old[4] = ver
		if _, err := decodeHello(old); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("protocol version %d", ver)) {
			t.Fatalf("version-%d hello: got %v, want a protocol version error", ver, err)
		}
	}
}

// TestSetKeyRoundTrip pins the v4 key push: [u64 id][EvalKey image], with
// no digit-set section, decoding to the same key under the same id.
func TestSetKeyRoundTrip(t *testing.T) {
	params, err := fuzzParamsOnce()
	if err != nil {
		t.Fatal(err)
	}
	k := fuzzKey(t, params)
	p := encodeSetKey(0xfeed, k)
	if want := append(appendU64(nil, 0xfeed), k.Append(nil)...); !bytes.Equal(p, want) {
		t.Fatalf("key push is %d bytes, want [u64 id][EvalKey image] (%d bytes)", len(p), len(want))
	}
	id, got, err := decodeSetKey(p, params)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0xfeed || got.Digits() != k.Digits() || got.DigitSets != nil {
		t.Fatalf("decoded id %#x, %d digits, digit sets %v", id, got.Digits(), got.DigitSets)
	}
	for d := range k.B {
		if !got.B[d].Equal(k.B[d]) || !got.A[d].Equal(k.A[d]) {
			t.Fatalf("digit %d differs after the round trip", d)
		}
	}
	for _, n := range []int{0, 7, 8, len(p) - 1} {
		if _, _, err := decodeSetKey(p[:n], params); err == nil {
			t.Fatalf("key push truncated to %d of %d bytes decoded", n, len(p))
		}
	}
}

// TestKSBeginRoundTrip pins the v4 keyswitch begin: [u64 req][u64 key id]
// [u32 level][u32 frames]. A v3-shaped begin, with its algorithm byte after
// the request id, is one byte too long and fails to decode.
func TestKSBeginRoundTrip(t *testing.T) {
	m := ksBeginMsg{req: 11, keyID: 22, level: 3, frames: 4}
	p := encodeKSBegin(m)
	if len(p) != 24 {
		t.Fatalf("begin payload is %d bytes, want 24", len(p))
	}
	got, err := decodeKSBegin(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("decoded %+v, want %+v", got, m)
	}
	v3 := append(append(appendU64(nil, m.req), 0), p[8:]...)
	if _, err := decodeKSBegin(v3); err == nil {
		t.Fatal("a v3 begin with an algorithm byte decoded")
	}
	if _, err := decodeKSBegin(p[:len(p)-1]); err == nil {
		t.Fatal("a truncated begin decoded")
	}
}

// TestParseReply pins the reply rule: the answer is the first want or
// msgError frame leading with the exchange's id; everything else is stale.
func TestParseReply(t *testing.T) {
	ack := appendU64(nil, 7)
	for _, tc := range []struct {
		name          string
		typ           byte
		payload       []byte
		want          byte
		done, remote  bool
		protocolError bool
	}{
		{"answer", msgKeyAck, ack, msgKeyAck, true, false, false},
		{"other id", msgKeyAck, appendU64(nil, 6), msgKeyAck, false, false, false},
		{"other type, same id", msgKeyAck, ack, msgKeyGone, false, false, false},
		{"stale pong", msgPong, appendU64(nil, 3), msgKSResult, false, false, false},
		{"refusal", msgError, appendStr(appendU64(nil, 7), "no"), msgKSResult, true, true, false},
		{"stale refusal", msgError, appendStr(appendU64(nil, 6), "no"), msgKSResult, false, false, false},
		{"result body left to its decoder", msgKSResult, append(appendU64(nil, 7), 1, 2, 3), msgKSResult, true, false, false},
		{"ack with trailing bytes", msgPong, append(appendU64(nil, 7), 0), msgPong, true, false, true},
		{"no id", msgHelloAck, []byte{7}, msgHelloAck, true, false, true},
		{"truncated refusal", msgError, append(appendU64(nil, 7), 9, 0, 0, 0), msgKeyGone, true, false, true},
	} {
		done, err := parseReply(tc.typ, tc.payload, 7, tc.want)
		var rerr *remoteError
		if done != tc.done || errors.As(err, &rerr) != tc.remote || (err != nil && rerr == nil) != tc.protocolError {
			t.Errorf("%s: done=%v err=%v", tc.name, done, err)
		}
	}
}

var fuzzParamsOnce = sync.OnceValues(func() (*ckks.Parameters, error) {
	return ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     4,
		LogQ:     []int{55, 45},
		LogP:     []int{58},
		LogScale: 45,
		Seed:     1,
	})
})

// fuzzKey is a relinearization key over the fuzz parameters.
func fuzzKey(t testing.TB, params *ckks.Parameters) *ckks.EvalKey {
	t.Helper()
	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	return rlk
}

// FuzzReadFrame: arbitrary byte streams must produce a frame or an error —
// never a panic, never an allocation beyond the bytes provided (plus one
// chunk).
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, msgPing, 1, 2, 3, 4})
	var huge [5]byte
	binary.LittleEndian.PutUint32(huge[:4], maxFrame)
	f.Add(huge[:])
	var buf bytes.Buffer
	WriteFrame(&buf, msgKSBegin, encodeKSBegin(ksBeginMsg{req: 1, keyID: 2, level: 3, frames: 4}))
	f.Add(buf.Bytes())
	// CRC-corruption seeds: a well-formed frame with a flipped payload bit
	// and one with a flipped trailer bit — both must fail, never decode.
	corruptBody := bytes.Clone(buf.Bytes())
	corruptBody[6] ^= 0x10
	f.Add(corruptBody)
	corruptCRC := bytes.Clone(buf.Bytes())
	corruptCRC[len(corruptCRC)-1] ^= 0x01
	f.Add(corruptCRC)
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload)+5+crcLen > len(data) {
			// payload + framing can never exceed the input bytes
			t.Fatalf("frame type %#x claims %d payload bytes from %d input bytes", typ, len(payload), len(data))
		}
		// Any accepted frame re-encodes to the same bytes the reader
		// consumed: the CRC makes framing canonical.
		var re bytes.Buffer
		if err := WriteFrame(&re, typ, payload); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data[:re.Len()]) {
			t.Fatalf("accepted frame is not canonical")
		}
	})
}

// FuzzDecodePayloads: every payload decoder must reject malformed bytes
// with an error, never panic or over-allocate.
func FuzzDecodePayloads(f *testing.F) {
	f.Add(encodeLimbs(1, 2, []int{0, 1}, [][]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}}))
	f.Add(encodeKSResult(ksResultMsg{req: 1, chain0: []int{0}, limbs0: [][]uint64{{1, 2, 3, 4}}, chain1: []int{0}, limbs1: [][]uint64{{5, 6, 7, 8}}}))
	f.Add(encodeHello(helloMsg{digest: 9, nChips: 2, chip: 0}))
	f.Add(appendStr(appendU64(nil, 3), "boom"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(encodeKSBegin(ksBeginMsg{req: 1, keyID: 2, level: 3, frames: 4}))
	if params, err := fuzzParamsOnce(); err == nil {
		f.Add(encodeSetKey(5, fuzzKey(f, params)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, n := range []int{1, 4, 16} {
			decodeLimbs(data, n, freshLimbs(n))
			out0, out1 := testPoly(4, n), testPoly(4, n)
			decodeKSResult(data, []int{0}, out0, out1)
			decodeKSResult(data, []int{0, 3}, out0, out1)
		}
		decodeHello(data)
		decodeKSBegin(data)
		decodeID(data)
		for _, want := range []byte{msgHelloAck, msgKeyAck, msgKSResult, msgPong, msgKeyGone} {
			parseReply(want, data, 3, want)
			parseReply(msgError, data, 3, want)
		}
		if params, err := fuzzParamsOnce(); err == nil {
			decodeSetKey(data, params)
		}
	})
}

// FuzzLimbsRoundTrip: encode→decode must be the identity for well-formed
// limb frames derived from fuzz input.
func FuzzLimbsRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint32(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(999), uint32(7), make([]byte, 64))
	f.Fuzz(func(t *testing.T, req uint64, digit uint32, raw []byte) {
		n := 4 // coefficients per limb
		nLimbs := len(raw) / (8 * n)
		if nLimbs > 64 {
			nLimbs = 64
		}
		chain := make([]int, nLimbs)
		limbs := make([][]uint64, nLimbs)
		for i := 0; i < nLimbs; i++ {
			chain[i] = i
			limbs[i] = make([]uint64, n)
			for j := 0; j < n; j++ {
				limbs[i][j] = binary.LittleEndian.Uint64(raw[(i*n+j)*8:])
			}
		}
		got, err := decodeLimbs(encodeLimbs(req, digit, chain, limbs), n, freshLimbs(n))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if got.req != req || got.digit != digit || len(got.limbs) != nLimbs {
			t.Fatalf("round trip mismatch: %+v", got)
		}
		for i := range limbs {
			if got.chain[i] != chain[i] {
				t.Fatalf("chain[%d] = %d, want %d", i, got.chain[i], chain[i])
			}
			for j := range limbs[i] {
				if got.limbs[i][j] != limbs[i][j] {
					t.Fatalf("limb[%d][%d] mismatch", i, j)
				}
			}
		}
	})
}

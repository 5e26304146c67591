package cluster

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"cinnamon/internal/keyswitch"
)

// TestFrameEncodeZeroAlloc pins the wire-path memory discipline: once the
// size-classed buffer pool is warm, encoding and writing the per-RPC hot
// frames — a digit's limb broadcast and a chip's result — allocates
// nothing. A regression here means every keyswitch RPC is paying
// O(frame size) garbage again.
func TestFrameEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is perturbed by the race detector")
	}
	const n = 1 << 12
	limbs := make([][]uint64, 9)
	chain := make([]int, 9)
	for j := range limbs {
		chain[j] = j
		limbs[j] = make([]uint64, n)
		for i := range limbs[j] {
			limbs[j][i] = uint64(j*n + i)
		}
	}
	res := ksResultMsg{
		req: 3, moved: 12,
		chain0: chain, limbs0: limbs,
		chain1: chain, limbs1: limbs,
	}
	roundTrip := func() {
		p := encodeLimbs(7, 2, chain, limbs)
		if err := WriteFrame(io.Discard, msgLimbs, p); err != nil {
			t.Fatal(err)
		}
		putFrameBuf(p)
		b := encodeKSBegin(ksBeginMsg{req: 7, keyID: 1, level: 8, frames: 5})
		if err := WriteFrame(io.Discard, msgKSBegin, b); err != nil {
			t.Fatal(err)
		}
		putFrameBuf(b)
		q := encodeKSResult(res)
		if err := WriteFrame(io.Discard, msgKSResult, q); err != nil {
			t.Fatal(err)
		}
		putFrameBuf(q)
	}
	// Warm the pool classes the three frame shapes draw from.
	for i := 0; i < 3; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(10, roundTrip); allocs != 0 {
		t.Fatalf("warm frame encode allocated %.1f times per op, want 0", allocs)
	}
}

// TestReadFrameAllocCeiling: a warm read of a large frame whose payload
// goes back to the pool once decoded, as the engine's replies and the
// worker's frames do, allocates next to nothing. The body grows through
// pooled buffers until the announced length is within reach and is itself
// a pooled buffer, so neither the doubling steps nor the body cost garbage
// (0.0000x measured; a body allocated per read measured 1.0x).
func TestReadFrameAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is perturbed by the race detector")
	}
	for _, size := range []int{1 << 20, 8 << 20} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msgKSResult, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		var r bytes.Reader
		read := func() {
			r.Reset(frame)
			_, p, err := ReadFrame(&r)
			if err != nil || len(p) != size {
				t.Fatalf("ReadFrame: %d bytes, %v", len(p), err)
			}
			putFrameBuf(p)
		}
		read() // warm the pool classes the growth steps draw from
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		if ratio := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(size); ratio > 0.05 {
			t.Fatalf("%d-byte frame: ReadFrame allocated %.4fx the payload, ceiling 0.05x", size, ratio)
		}
	}
}

// TestBufPoolReuse checks the size-class plumbing: a released buffer is
// handed back for the next request that fits its class, and undersized or
// oversized returns are dropped rather than mis-filed.
func TestBufPoolReuse(t *testing.T) {
	b := getFrameBuf(1000)
	if cap(b) < 1000 {
		t.Fatalf("got cap %d for hint 1000", cap(b))
	}
	b = append(b, 42)
	first := &b[0]
	putFrameBuf(b)
	c := getFrameBuf(900)
	if cap(c) < 900 {
		t.Fatalf("got cap %d for hint 900", cap(c))
	}
	c = append(c, 7)
	if &c[0] != first {
		t.Fatal("pooled buffer was not reused for a same-class request")
	}
	if len(c) != 1 || c[0] != 7 {
		t.Fatalf("reused buffer not reset: len %d", len(c))
	}
	putFrameBuf(c)
	// Tiny buffers never enter the pool.
	putFrameBuf(make([]byte, 0, 16))
	if d := getFrameBuf(8); cap(d) < 8 || cap(d) > 1<<bufMinBits {
		t.Fatalf("minimum class request got cap %d", cap(d))
	}
}

// TestWorkerKeySwitchAllocCeiling: a warm chip keyswitch on a worker
// session compiles no plan — the session keeps its chip's plan per level
// from the first keyswitch at that level — so it allocates only its frame
// reads and decodes and its pending state. The test plays the coordinator
// over net.Pipe with frames encoded before the count starts, so the count
// is the worker's (plus the one reply read on this side).
func TestWorkerKeySwitchAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is perturbed by the race detector")
	}
	// Frame reads (with their read deadlines), the limb frames' headers and
	// the pending request at logN 9, level 4 (three digits): 20 measured,
	// with frame bodies and decoded limbs drawn from the pools. Decoding
	// into fresh limbs and bodies measured 30, and a worker that compiled
	// its chip's kernel state on every keyswitch 101.
	const ceiling = 24
	tc := newClusterContext(t, 1, Options{HeartbeatInterval: time.Hour})
	params := tc.params
	l := params.MaxLevel()
	cc := tc.encryptRandom(t, 5).C1.Copy()
	if err := params.Ring.INTT(cc); err != nil {
		t.Fatal(err)
	}
	conn, wconn := net.Pipe()
	defer conn.Close()
	go NewWorker(params).Serve(wconn)
	br := bufio.NewReader(conn)
	exchange := func(typ byte, payload []byte, want byte) {
		t.Helper()
		if err := WriteFrame(conn, typ, payload); err != nil {
			t.Fatal(err)
		}
		if got, p, err := ReadFrame(br); err != nil || got != want {
			t.Fatalf("frame %#x answered with %#x (%q), %v", typ, got, p, err)
		}
	}
	exchange(msgHello, encodeHello(helloMsg{digest: ParamsDigest(params), nChips: 2, chip: 0}), msgHelloAck)
	exchange(msgSetKey, encodeSetKey(1, tc.rlk), msgKeyAck)

	var req bytes.Buffer
	digits := keyswitch.DigitRanges(params, tc.rlk, l)
	if err := WriteFrame(&req, msgKSBegin, encodeKSBegin(ksBeginMsg{req: 9, keyID: 1, level: uint32(l), frames: uint32(len(digits))})); err != nil {
		t.Fatal(err)
	}
	for d, rng := range digits {
		chain := make([]int, 0, rng[1]-rng[0])
		for j := rng[0]; j < rng[1]; j++ {
			chain = append(chain, j)
		}
		if err := WriteFrame(&req, msgLimbs, encodeLimbs(9, uint32(d), chain, cc.Limbs[rng[0]:rng[1]])); err != nil {
			t.Fatal(err)
		}
	}
	keyswitch := func() {
		if _, err := conn.Write(req.Bytes()); err != nil {
			t.Fatal(err)
		}
		typ, p, err := ReadFrame(br)
		if err != nil || typ != msgKSResult {
			t.Fatalf("keyswitch answered with %#x (%q), %v", typ, p, err)
		}
		putFrameBuf(p)
	}
	for i := 0; i < 3; i++ {
		keyswitch()
	}
	if allocs := testing.AllocsPerRun(20, keyswitch); allocs > ceiling {
		t.Fatalf("warm chip keyswitch allocated %.1f times per op, ceiling %d", allocs, ceiling)
	}
}

package cluster

import (
	"bytes"
	"io"
	"runtime"
	"testing"
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
		b := encodeKSBegin(ksBeginMsg{req: 7, alg: algIB, keyID: 1, level: 8, frames: 5})
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

// TestReadFrameAllocCeiling: reading a large frame allocates about its
// payload once. The body grows through pooled buffers until the announced
// length is within reach, so the doubling steps cost no garbage once the
// pool is warm.
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
			if _, p, err := ReadFrame(&r); err != nil || len(p) != size {
				t.Fatalf("ReadFrame: %d bytes, %v", len(p), err)
			}
		}
		read() // warm the pool classes the growth steps draw from
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		if ratio := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(size); ratio > 1.5 {
			t.Fatalf("%d-byte frame: ReadFrame allocated %.2fx the payload, ceiling 1.5x", size, ratio)
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

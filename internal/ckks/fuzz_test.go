package ckks

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// smallMarshalContext builds a tiny parameter set so byte-level
// robustness tests stay fast.
func smallMarshalContext(t testing.TB) (*Parameters, *Ciphertext) {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN: 5, LogQ: []int{45, 40}, LogP: []int{50}, LogScale: 40, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(params)
	v := randomComplex(params.Slots(), 1.0, 77)
	pt, err := enc.Encode(v, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewEncryptor(params, pk).Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return params, ct
}

// FuzzCiphertextRoundTrip throws arbitrary bytes at the untrusted
// ciphertext parser. The invariants: never panic, and anything the
// parser accepts must re-marshal to a byte-identical image (so a
// malicious body cannot smuggle state that survives validation but
// changes on the way back out).
func FuzzCiphertextRoundTrip(f *testing.F) {
	params, ct := smallMarshalContext(f)

	var valid bytes.Buffer
	if err := ct.Write(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x4e, 0x49, 0x43, 0, 0, 0, 0}) // magic, then nothing
	// Truncation seeds at structural boundaries.
	for _, cut := range []int{1, 8, 16, 17, 40, valid.Len() - 1} {
		if cut < valid.Len() {
			f.Add(valid.Bytes()[:cut])
		}
	}
	// A corrupt-header seed: implausible limb count.
	corrupt := append([]byte(nil), valid.Bytes()...)
	corrupt[16] = 0xff
	corrupt[17] = 0xff
	corrupt[18] = 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCiphertext(bytes.NewReader(data), params)
		if err != nil {
			return // rejected — fine, as long as it didn't panic
		}
		var out bytes.Buffer
		if err := got.Write(&out); err != nil {
			t.Fatalf("accepted ciphertext failed to re-marshal: %v", err)
		}
		again, err := ReadCiphertext(bytes.NewReader(out.Bytes()), params)
		if err != nil {
			t.Fatalf("re-marshaled ciphertext rejected: %v", err)
		}
		if !again.C0.Equal(got.C0) || !again.C1.Equal(got.C1) || again.Scale != got.Scale {
			t.Fatal("round trip is not a fixed point")
		}
	})
}

// TestReadCiphertextTruncated feeds every prefix of a valid wire image
// to the parser: all must fail cleanly (no panic, no partial accept).
func TestReadCiphertextTruncated(t *testing.T) {
	params, ct := smallMarshalContext(t)
	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadCiphertext(bytes.NewReader(raw[:cut]), params); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(raw))
		}
	}
	// The full image still parses (the loop above didn't just prove the
	// parser rejects everything).
	if _, err := ReadCiphertext(bytes.NewReader(raw), params); err != nil {
		t.Fatalf("full image rejected: %v", err)
	}
}

// TestReadCiphertextCorruptHeader corrupts each header field in turn.
func TestReadCiphertextCorruptHeader(t *testing.T) {
	params, ct := smallMarshalContext(t)
	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"magic", func(b []byte) { b[3] ^= 0x40 }},
		{"scale-zero", func(b []byte) {
			for i := 8; i < 16; i++ {
				b[i] = 0
			}
		}},
		{"scale-negative", func(b []byte) { b[15] |= 0x80 }},
		{"limb-count-huge", func(b []byte) { b[18] = 0xff }},
		{"ring-dim-mismatch", func(b []byte) { b[32] ^= 0x01 }},
		{"modulus-off-chain", func(b []byte) { b[40] ^= 0x01 }},
	}
	for _, tc := range cases {
		raw := append([]byte(nil), buf.Bytes()...)
		tc.mutate(raw)
		if _, err := ReadCiphertext(bytes.NewReader(raw), params); err == nil {
			t.Errorf("%s: corrupted header accepted", tc.name)
		}
	}
}

// TestReadEvalKeyTruncated does the truncation sweep for evaluation
// keys, sampling offsets (keys are big; every-byte would be slow).
func TestReadEvalKeyTruncated(t *testing.T) {
	tc := newTestContext(t, nil)
	var buf bytes.Buffer
	if err := tc.rlk.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{0, 1, 7, 8, 9, 31, 32, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadEvalKey(bytes.NewReader(raw[:cut]), tc.params); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(raw))
		}
	}
	// Implausible digit count is refused before any allocation.
	corrupt := append([]byte(nil), raw...)
	corrupt[2] = 0xff
	if _, err := ReadEvalKey(bytes.NewReader(corrupt), tc.params); err == nil {
		t.Fatal("huge digit count accepted")
	}
}

// allocBytes is the heap f allocates per call, averaged over runs.
func allocBytes(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// hostilePolyHeader is a polynomial header claiming 2^16 limbs of 2^20
// coefficients, followed by one modulus' worth of bytes and then EOF.
func hostilePolyHeader(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, 1<<16)
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = binary.LittleEndian.AppendUint64(b, 1<<20)
	return binary.LittleEndian.AppendUint64(b, 1<<40)
}

// TestReadCiphertextHostileHeaderAllocCeiling: a 48-byte body whose header
// claims 2^16 limbs of 2^20 coefficients must be refused on the header,
// against the parameter set, before the claimed size is allocated.
func TestReadCiphertextHostileHeaderAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is perturbed by the race detector")
	}
	params, _ := smallMarshalContext(t)
	in := binary.LittleEndian.AppendUint64(nil, ctMagic)
	in = binary.LittleEndian.AppendUint64(in, math.Float64bits(1<<40))
	in = hostilePolyHeader(in)
	if len(in) != 48 {
		t.Fatalf("hostile input is %d bytes, want 48", len(in))
	}
	per := allocBytes(4, func() {
		if _, err := ReadCiphertext(bytes.NewReader(in), params); err == nil {
			t.Fatal("hostile header accepted")
		}
	})
	if per > 64<<10 {
		t.Fatalf("hostile ciphertext header allocated %.0f bytes, ceiling 64 KiB", per)
	}
}

// TestReadEvalKeyHostileHeaderAllocCeiling is the same case for an
// evaluation key: one digit whose first polynomial lies about its size.
func TestReadEvalKeyHostileHeaderAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is perturbed by the race detector")
	}
	params, _ := smallMarshalContext(t)
	in := hostilePolyHeader(binary.LittleEndian.AppendUint64(nil, 1))
	per := allocBytes(4, func() {
		if _, err := ReadEvalKey(bytes.NewReader(in), params); err == nil {
			t.Fatal("hostile header accepted")
		}
	})
	if per > 64<<10 {
		t.Fatalf("hostile evaluation key header allocated %.0f bytes, ceiling 64 KiB", per)
	}
}

// FuzzReadEvalKeySources: the decoder's two sources agree. Over any bytes,
// ReadEvalKey on an io.Reader and a Decoder reading the slice in place
// decode equal keys or both fail, and the in-place key does not alias the
// slice it was read from.
func FuzzReadEvalKeySources(f *testing.F) {
	params, _ := smallMarshalContext(f)
	kg := NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		f.Fatal(err)
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		f.Fatal(err)
	}
	valid := rlk.Append(nil)
	f.Add(valid)
	f.Add([]byte{})
	for _, cut := range []int{1, 8, 9, 32, 40, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Add(append(bytes.Clone(valid), 0xff)) // a trailing byte neither reads
	outOfRange := bytes.Clone(valid)
	for i := 8 + polyHeaderLen + 8; i < 8+polyHeaderLen+16; i++ {
		outOfRange[i] = 0xff // the first coefficient, above every modulus
	}
	f.Add(outOfRange)

	f.Fuzz(func(t *testing.T, data []byte) {
		want, errR := ReadEvalKey(bytes.NewReader(data), params)
		buf := bytes.Clone(data)
		got, errS := NewSliceDecoder(buf).EvalKey(params)
		if (errR == nil) != (errS == nil) {
			t.Fatalf("reader source: %v, slice source: %v", errR, errS)
		}
		if errR != nil {
			return
		}
		clear(buf)
		if len(got.B) != len(want.B) {
			t.Fatalf("%d digits from the slice, %d from the reader", len(got.B), len(want.B))
		}
		for d := range want.B {
			if !got.B[d].Equal(want.B[d]) || !got.A[d].Equal(want.A[d]) {
				t.Fatalf("digit %d differs between the sources (or aliases the slice)", d)
			}
		}
	})
}

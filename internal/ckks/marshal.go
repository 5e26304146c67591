package ckks

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"cinnamon/internal/ring"
	"cinnamon/internal/rns"
)

// Binary serialization for ciphertexts and evaluation keys, so a client
// and server can actually exchange encrypted data — the deployment surface
// any downstream user of the library needs. The format is little-endian:
// a small header (magic, domain flag, scale, limb count, ring dimension)
// followed by per-limb modulus + coefficients.
//
// There is one encoder (Append, which Write wraps: it appends into the
// writer's own free space when the writer exposes it) and one decoder
// (polyReader, behind ReadCiphertext, ReadEvalKey and Decoder), which
// reads either an io.Reader through one scratch buffer or a byte slice in
// place. The decoder knows the basis every caller expects, so it rejects
// a header whose limb count or ring dimension the parameter set cannot
// hold before it allocates, and checks each limb's modulus against that
// basis and each coefficient against its modulus in the decode loop
// itself.

const ctMagic = 0x43494e31 // "CIN1"

// polyHeaderLen is a polynomial's header: limb count, NTT flag and ring
// dimension, one u64 each.
const polyHeaderLen = 24

func polyDim(p *ring.Poly) int {
	if len(p.Limbs) == 0 {
		return 0
	}
	return len(p.Limbs[0])
}

// polyLen is the encoded byte length of p: the header, then per limb its
// modulus and coefficients.
func polyLen(p *ring.Poly) int {
	return polyHeaderLen + len(p.Limbs)*8*(1+polyDim(p))
}

// FreeSpace returns the unused tail of w's buffer when w exposes one
// (bytes.Buffer and bufio.Writer do, through AvailableBuffer): an image
// appended to it and passed straight to w.Write lands in place, with no
// buffer of its own. It returns nil for any other writer.
func FreeSpace(w io.Writer) []byte {
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		return ab.AvailableBuffer()
	}
	return nil
}

func appendPoly(b []byte, p *ring.Poly) []byte {
	var ntt uint64
	if p.IsNTT {
		ntt = 1
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(p.Limbs)))
	b = binary.LittleEndian.AppendUint64(b, ntt)
	b = binary.LittleEndian.AppendUint64(b, uint64(polyDim(p)))
	for j, limb := range p.Limbs {
		b = binary.LittleEndian.AppendUint64(b, p.Basis.Moduli[j])
		off := len(b)
		b = append(b, make([]byte, 8*len(limb))...)
		dst := b[off:]
		for i, c := range limb {
			binary.LittleEndian.PutUint64(dst[8*i:], c)
		}
	}
	return b
}

// polyReader decodes one stream: from r through a single reusable scratch
// buffer, or, when r is nil, from src in place.
type polyReader struct {
	r       io.Reader
	scratch []byte
	src     []byte
}

// next returns the stream's next n bytes: a subslice of src, or the
// scratch buffer filled from r, valid until the following call. A short
// source fails as io.ReadFull does: io.EOF when nothing is left,
// io.ErrUnexpectedEOF when part of the n bytes is.
func (pr *polyReader) next(n int) ([]byte, error) {
	if pr.r == nil {
		if len(pr.src) < n {
			if len(pr.src) == 0 {
				return nil, io.EOF
			}
			return nil, io.ErrUnexpectedEOF
		}
		b := pr.src[:n:n]
		pr.src = pr.src[n:]
		return b, nil
	}
	if cap(pr.scratch) < n {
		pr.scratch = make([]byte, n)
	}
	b := pr.scratch[:n]
	if _, err := io.ReadFull(pr.r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// readPoly decodes one polynomial over a prefix of basis (over all of it
// when whole is set) with ring dimension n. The header is checked against
// both before anything is allocated; the limbs then land in one backing
// array, each limb's modulus compared to basis and each coefficient to its
// modulus as it is decoded.
func (pr *polyReader) readPoly(basis rns.Basis, whole bool, n int) (*ring.Poly, error) {
	hdr, err := pr.next(polyHeaderLen)
	if err != nil {
		return nil, err
	}
	limbs := binary.LittleEndian.Uint64(hdr)
	isNTT := binary.LittleEndian.Uint64(hdr[8:]) == 1
	dim := binary.LittleEndian.Uint64(hdr[16:])
	if limbs == 0 || limbs > uint64(basis.Len()) || whole && limbs != uint64(basis.Len()) {
		return nil, fmt.Errorf("ckks: polynomial with %d limbs does not fit the parameter set's %d-limb basis", limbs, basis.Len())
	}
	if dim != uint64(n) {
		return nil, fmt.Errorf("ckks: ring dimension %d, parameter set has %d", dim, n)
	}
	k := int(limbs)
	data := make([]uint64, k*n)
	p := &ring.Poly{Basis: basis.Prefix(k), Limbs: make([][]uint64, k), IsNTT: isNTT}
	for j := range p.Limbs {
		raw, err := pr.next(8 + 8*n)
		if err != nil {
			return nil, err
		}
		q := basis.Moduli[j]
		if m := binary.LittleEndian.Uint64(raw); m != q {
			return nil, fmt.Errorf("ckks: limb %d has modulus %d, parameter set has %d", j, m, q)
		}
		raw = raw[8:]
		limb := data[j*n : (j+1)*n : (j+1)*n]
		for i := range limb {
			c := binary.LittleEndian.Uint64(raw[8*i:])
			if c >= q {
				return nil, fmt.Errorf("ckks: coefficient %d out of range for modulus %d", c, q)
			}
			limb[i] = c
		}
		p.Limbs[j] = limb
	}
	return p, nil
}

// EncodedLen is the byte length of the ciphertext's wire image.
func (ct *Ciphertext) EncodedLen() int {
	return 16 + polyLen(ct.C0) + polyLen(ct.C1)
}

// Append appends the ciphertext's wire image to b, growing b at most once.
func (ct *Ciphertext) Append(b []byte) []byte {
	b = slices.Grow(b, ct.EncodedLen())
	b = binary.LittleEndian.AppendUint64(b, ctMagic)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ct.Scale))
	return appendPoly(appendPoly(b, ct.C0), ct.C1)
}

// Write serializes the ciphertext in one Write call.
func (ct *Ciphertext) Write(w io.Writer) error {
	_, err := w.Write(ct.Append(FreeSpace(w)))
	return err
}

// ReadCiphertext deserializes a ciphertext and validates it against the
// parameter set (basis must be a chain prefix, dimensions must match).
func ReadCiphertext(r io.Reader, params *Parameters) (*Ciphertext, error) {
	pr := polyReader{r: r}
	hdr, err := pr.next(16)
	if err != nil {
		return nil, err
	}
	if magic := binary.LittleEndian.Uint64(hdr); magic != ctMagic {
		return nil, fmt.Errorf("ckks: bad ciphertext magic %#x", magic)
	}
	scale := math.Float64frombits(binary.LittleEndian.Uint64(hdr[8:]))
	if !(scale > 0) {
		return nil, fmt.Errorf("ckks: invalid scale %g", scale)
	}
	c0, err := pr.readPoly(params.QBasis, false, params.N())
	if err != nil {
		return nil, err
	}
	c1, err := pr.readPoly(params.QBasis, false, params.N())
	if err != nil {
		return nil, err
	}
	if c0.Basis.Len() != c1.Basis.Len() {
		return nil, fmt.Errorf("ckks: component level mismatch")
	}
	return &Ciphertext{C0: c0, C1: c1, Scale: scale}, nil
}

// EncodedLen is the byte length of the key's wire image.
func (k *EvalKey) EncodedLen() int {
	n := 8
	for d := range k.B {
		n += polyLen(k.B[d]) + polyLen(k.A[d])
	}
	return n
}

// Append appends the key's wire image (all digits, both halves) to b,
// growing b at most once.
func (k *EvalKey) Append(b []byte) []byte {
	b = slices.Grow(b, k.EncodedLen())
	b = binary.LittleEndian.AppendUint64(b, uint64(len(k.B)))
	for d := range k.B {
		b = appendPoly(appendPoly(b, k.B[d]), k.A[d])
	}
	return b
}

// Write serializes an evaluation key in one Write call.
func (k *EvalKey) Write(w io.Writer) error {
	_, err := w.Write(k.Append(FreeSpace(w)))
	return err
}

// ReadEvalKey deserializes an evaluation key (default digit partition).
// Every digit must be over Q∪P.
func ReadEvalKey(r io.Reader, params *Parameters) (*EvalKey, error) {
	pr := polyReader{r: r}
	return pr.readEvalKey(params)
}

// Decoder reads a run of fields and evaluation keys from one source, for
// formats that carry keys among fields of their own (serve's key bundle,
// the cluster's key push). A Decoder over a byte slice reads it in place:
// Next returns subslices of it, and EvalKey copies each coefficient out of
// it once, so the keys it returns never alias the slice.
type Decoder struct{ pr polyReader }

// NewDecoder decodes from r through one scratch buffer.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{polyReader{r: r}} }

// NewSliceDecoder decodes b in place.
func NewSliceDecoder(b []byte) *Decoder { return &Decoder{polyReader{src: b}} }

// Next returns the next n bytes, valid until the following call.
func (d *Decoder) Next(n int) ([]byte, error) { return d.pr.next(n) }

// EvalKey decodes the next evaluation key, with ReadEvalKey's checks.
func (d *Decoder) EvalKey(params *Parameters) (*EvalKey, error) { return d.pr.readEvalKey(params) }

func (pr *polyReader) readEvalKey(params *Parameters) (*EvalKey, error) {
	hdr, err := pr.next(8)
	if err != nil {
		return nil, err
	}
	digits := binary.LittleEndian.Uint64(hdr)
	if digits == 0 || digits > 1<<10 {
		return nil, fmt.Errorf("ckks: implausible digit count %d", digits)
	}
	qp := params.QPBasis()
	k := &EvalKey{B: make([]*ring.Poly, digits), A: make([]*ring.Poly, digits)}
	for d := range k.B {
		if k.B[d], err = pr.readPoly(qp, true, params.N()); err != nil {
			return nil, fmt.Errorf("ckks: evaluation key digit %d: %w", d, err)
		}
		if k.A[d], err = pr.readPoly(qp, true, params.N()); err != nil {
			return nil, fmt.Errorf("ckks: evaluation key digit %d: %w", d, err)
		}
	}
	return k, nil
}

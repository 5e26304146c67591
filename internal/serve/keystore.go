package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"cinnamon/internal/cluster"
)

// The spill store holds evicted tenant key bundles on disk, content-
// addressed by the SHA-256 of their serialized bundle image (WriteKeyBundle
// sorts key names, so the image — and therefore the address — is a pure
// function of the key material). Two tenants registering identical bundles
// share one file.
//
// A spill file is a sequence of wire-v2 CRC-framed records (the cluster
// codec: [u32 length][u8 type][payload][u32 crc32c]), so torn writes and
// bit rot are detected on load exactly like corruption on the cluster
// wire. Record types are disjoint from both the cluster's 0x01–0x0c range
// and the session log's 0x81–0x83:
//
//	spillHeader (0x91): u64 total key-entry bytes, u32 key count
//	spillKey    (0x92): one key's bundle entry (u16 name length, name, key
//	                    image), in frames of ≤ spillChunkSize payload bytes
//
// One key record follows the header per key, in the bundle's name order.
// A record is usually one frame; a key past spillChunkSize (a frame caps at
// 64 MiB) spans several, and its record covers them all. Save returns the
// file's layout — every record's byte range and the SHA-256 of the entry
// it carries — and the cache keeps it resident, so a load reads and
// checks exactly the records it names (see Load).
const (
	spillHeader byte = 0x91
	spillKey    byte = 0x92

	// spillChunkSize keeps each key frame well under the codec's 64 MiB
	// maxFrame.
	spillChunkSize = 32 << 20
)

// spillRecord locates one key's record in its spill file: the byte range
// [off, off+n) of its frames and the SHA-256 of the entry they carry.
type spillRecord struct {
	name   string
	off, n int64
	sum    [sha256.Size]byte
}

// spillLayout is the resident index of one spill file: its length, the
// key-entry bytes its header announces, and one record per key in file
// order.
type spillLayout struct {
	size  int64
	total int64
	recs  []spillRecord
}

// pick returns the records of the keys need names, in file order.
func (l *spillLayout) pick(need []string) []spillRecord {
	var recs []spillRecord
	for _, r := range l.recs {
		if slices.Contains(need, r.name) {
			recs = append(recs, r)
		}
	}
	return recs
}

// keyStore is the content-addressed on-disk spill store.
type keyStore struct {
	dir string

	// bytesRead counts the spill-file bytes loads have read.
	bytesRead atomic.Int64

	// free holds the read buffers of finished loads for the next ones to
	// read into: a load takes one (or makes one) and puts it back when it
	// is done, so the store keeps at most as many buffers as loads have
	// run at once, each as large as the most that one load has read.
	mu   sync.Mutex
	free [][]byte
}

func newKeyStore(dir string) (*keyStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: key spill dir: %w", err)
	}
	return &keyStore{dir: dir}, nil
}

// bundleHash is the content address of a serialized key bundle.
func bundleHash(bundle []byte) string {
	sum := sha256.Sum256(bundle)
	return hex.EncodeToString(sum[:])
}

func (s *keyStore) path(hash string) string {
	return filepath.Join(s.dir, hash+".keys")
}

// Save writes the spill file of bundle under hash: the header, then one
// record per key entry that spans locates. It returns the file's layout,
// a pure function of the entries. It always writes, even when a file
// already sits at the address: that file may have rotted since it was
// written, and a re-registration of the same content is how a tenant
// recovers from a failed reload (keeping the old file would fail the next
// reload of every tenant sharing it). The file lands via fsync and rename
// from a temp file in the same directory, so a crash mid-write never
// leaves a partial file at the content address and a concurrent Load
// reads either the old file or the new one, whole.
func (s *keyStore) Save(hash string, bundle []byte, spans []keySpan) (spillLayout, error) {
	l := spillLayout{recs: make([]spillRecord, len(spans))}
	for _, sp := range spans {
		l.total += int64(sp.hi - sp.lo)
	}
	tmp, err := os.CreateTemp(s.dir, "spill-*.tmp")
	if err != nil {
		return spillLayout{}, err
	}
	defer os.Remove(tmp.Name())
	var hdr []byte
	hdr = appendU64le(hdr, uint64(l.total))
	hdr = appendU32le(hdr, uint32(len(spans)))
	if err := cluster.WriteFrame(tmp, spillHeader, hdr); err != nil {
		tmp.Close()
		return spillLayout{}, err
	}
	l.size = frameLen(len(hdr))
	for i, sp := range spans {
		entry := bundle[sp.lo:sp.hi]
		rec := &l.recs[i]
		*rec = spillRecord{name: sp.name, off: l.size, sum: sha256.Sum256(entry)}
		// An empty entry still writes one (empty) frame.
		for lo := 0; lo == 0 || lo < len(entry); lo += spillChunkSize {
			part := entry[lo:min(lo+spillChunkSize, len(entry))]
			if err := cluster.WriteFrame(tmp, spillKey, part); err != nil {
				tmp.Close()
				return spillLayout{}, err
			}
			l.size += frameLen(len(part))
		}
		rec.n = l.size - rec.off
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return spillLayout{}, err
	}
	if err := tmp.Close(); err != nil {
		return spillLayout{}, err
	}
	if err := os.Rename(tmp.Name(), s.path(hash)); err != nil {
		return spillLayout{}, err
	}
	return l, nil
}

// frameLen is the file bytes of one spill frame carrying n payload bytes:
// the u32 length, the type byte and the CRC-32C trailer around them.
func frameLen(n int) int64 { return int64(4 + 1 + n + 4) }

// Remove deletes a spilled bundle. Best-effort: the caller (keyCache
// refcounting) has determined no tenant references the hash, and a file
// that survives removal only costs disk until the address is reused.
func (s *keyStore) Remove(hash string) {
	os.Remove(s.path(hash))
}

// Load reads the records recs (in file order, a subset of l.recs) of the
// spill file at hash and hands use each one's key entry, checked in place:
// the file is the length l says, each of its frames passes the length and
// CRC-32C rule (the cluster codec's), has the key type and ends inside
// the record, and the entry hashes to the record's resident SHA-256. A
// load that names every record is a full load: it reads the whole file
// with one ReadAt and also checks the header's total and key count
// against l. Any other load reads only its records, one ReadAt each, so a
// cold run that needs one key of fifteen reads, hashes and decodes about
// one fifteenth of the bundle. Both read into a buffer the store recycles.
// An entry is use's only for the call; what use keeps must not alias it.
func (s *keyStore) Load(hash string, l *spillLayout, recs []spillRecord, use func(rec *spillRecord, entry []byte) error) error {
	full := len(recs) == len(l.recs)
	raw, err := s.read(s.path(hash), l, recs, full, s.takeBuffer())
	defer s.putBuffer(raw)
	if err != nil {
		return fmt.Errorf("serve: spill %s: %w", hash[:12], err)
	}
	if full {
		hdrLen := l.size
		if len(l.recs) > 0 {
			hdrLen = l.recs[0].off
		}
		if err := checkSpillHeader(raw[:hdrLen], l); err != nil {
			return fmt.Errorf("serve: spill %s: header: %w", hash[:12], err)
		}
		raw = raw[hdrLen:]
	}
	for i := range recs {
		rec := &recs[i]
		entry, err := unframeRecord(raw[:rec.n])
		raw = raw[rec.n:]
		if err != nil {
			return fmt.Errorf("serve: spill %s: key %q: %w", hash[:12], rec.name, err)
		}
		// The digest is the proof: an entry that does not hash to what
		// Save computed has been corrupted in a way the frame CRCs missed
		// (or tampered with), and must not be deserialized.
		if sha256.Sum256(entry) != rec.sum {
			return fmt.Errorf("serve: spill %s: key %q: digest mismatch", hash[:12], rec.name)
		}
		if err := use(rec, entry); err != nil {
			return err
		}
	}
	return nil
}

// read checks that the file at path is the length l says and reads into
// buf, growing it when the reads are larger, either the whole file (full)
// or each record of recs back to back.
func (s *keyStore) read(path string, l *spillLayout, recs []spillRecord, full bool, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf[:0], err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return buf[:0], err
	}
	if fi.Size() != l.size {
		return buf[:0], fmt.Errorf("file is %d bytes, its layout says %d", fi.Size(), l.size)
	}
	want := l.size
	if !full {
		want = 0
		for _, rec := range recs {
			want += rec.n
		}
	}
	if int64(cap(buf)) < want {
		buf = make([]byte, want)
	}
	buf = buf[:want]
	if full {
		_, err = f.ReadAt(buf, 0)
	} else {
		pos := int64(0)
		for _, rec := range recs {
			if _, err = f.ReadAt(buf[pos:pos+rec.n], rec.off); err != nil {
				break
			}
			pos += rec.n
		}
	}
	if err != nil {
		return buf[:0], err
	}
	s.bytesRead.Add(want)
	return buf, nil
}

// checkSpillHeader checks that raw is exactly one header frame announcing
// l's total and key count.
func checkSpillHeader(raw []byte, l *spillLayout) error {
	typ, payload, rest, err := cluster.SplitFrame(raw)
	if err != nil {
		return err
	}
	if typ != spillHeader || len(payload) != 12 || len(rest) != 0 {
		return fmt.Errorf("bad header frame (type %#x, %d bytes, %d trailing)", typ, len(payload), len(rest))
	}
	if total, n := int64(u64le(payload)), int(u32le(payload[8:])); total != l.total || n != len(l.recs) {
		return fmt.Errorf("header says %d keys in %d bytes, the layout %d in %d", n, total, len(l.recs), l.total)
	}
	return nil
}

// unframeRecord checks a key record's frames in place and returns the
// entry they carry: one frame's payload as is, several joined.
func unframeRecord(raw []byte) ([]byte, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("empty record")
	}
	var entry []byte
	for i := 0; len(raw) > 0; i++ {
		typ, payload, rest, err := cluster.SplitFrame(raw)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		if typ != spillKey {
			return nil, fmt.Errorf("frame %d has type %#x", i, typ)
		}
		switch i {
		case 0:
			entry = payload
		case 1:
			entry = append(append(make([]byte, 0, len(entry)+len(raw)), entry...), payload...)
		default:
			entry = append(entry, payload...)
		}
		raw = rest
	}
	return entry, nil
}

func (s *keyStore) takeBuffer() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return nil
	}
	buf := s.free[n-1]
	s.free = s.free[:n-1]
	return buf
}

func (s *keyStore) putBuffer(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	s.mu.Lock()
	s.free = append(s.free, buf[:0])
	s.mu.Unlock()
}

func appendU32le(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64le(b []byte, v uint64) []byte {
	return appendU32le(appendU32le(b, uint32(v)), uint32(v>>32))
}

func u32le(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func u64le(b []byte) uint64 {
	return uint64(u32le(b)) | uint64(u32le(b[4:]))<<32
}

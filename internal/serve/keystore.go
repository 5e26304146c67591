package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

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
//	spillHeader (0x91): u64 total bundle length, u32 chunk count
//	spillChunk  (0x92): raw bundle bytes, ≤ spillChunkSize per frame
//
// Bundles are chunked because a frame caps at 64 MiB while a wide rotation
// key set can exceed it.
const (
	spillHeader byte = 0x91
	spillChunk  byte = 0x92

	// spillChunkSize keeps each chunk frame well under the codec's 64 MiB
	// maxFrame.
	spillChunkSize = 32 << 20
)

// keyStore is the content-addressed on-disk spill store.
type keyStore struct {
	dir string

	// free holds the file buffers of finished loads for the next ones to
	// read into: a load takes one (or makes one) and puts it back when it
	// is done, so the store keeps at most as many buffers as loads have
	// run at once, each as large as the largest file it has read.
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

// Save writes the bundle under its content hash. It always writes, even
// when a file already sits at the address: that file may have rotted since
// it was written, and a re-registration of the same content is how a
// tenant recovers from a failed reload (keeping the old file would fail
// the next reload of every tenant sharing it). The file lands via fsync
// and rename from a temp file in the same directory, so a crash mid-write
// never leaves a partial file at the content address and a concurrent Load
// reads either the old file or the new one, whole.
func (s *keyStore) Save(hash string, bundle []byte) error {
	dst := s.path(hash)
	tmp, err := os.CreateTemp(s.dir, "spill-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	nChunks := (len(bundle) + spillChunkSize - 1) / spillChunkSize
	if nChunks == 0 {
		nChunks = 1 // an empty bundle still writes one (empty) chunk
	}
	var hdr []byte
	hdr = appendU64le(hdr, uint64(len(bundle)))
	hdr = appendU32le(hdr, uint32(nChunks))
	if err := cluster.WriteFrame(tmp, spillHeader, hdr); err != nil {
		tmp.Close()
		return err
	}
	for i := 0; i < nChunks; i++ {
		lo := i * spillChunkSize
		hi := lo + spillChunkSize
		if hi > len(bundle) {
			hi = len(bundle)
		}
		if err := cluster.WriteFrame(tmp, spillChunk, bundle[lo:hi]); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), dst)
}

// Remove deletes a spilled bundle. Best-effort: the caller (keyCache
// refcounting) has determined no tenant references the hash, and a file
// that survives removal only costs disk until the address is reused.
func (s *keyStore) Remove(hash string) {
	os.Remove(s.path(hash))
}

// Load reads a spilled bundle back with one file read into a buffer the
// store recycles, checks it in place — every frame's length and CRC (the
// cluster codec's rule), the announced total, and the SHA-256 content
// address — and hands use the exact WriteKeyBundle image that was saved:
// for a one-chunk file a subslice of the buffer, not a copy. The image is
// use's only for the call; what use keeps must not alias it.
func (s *keyStore) Load(hash string, use func(bundle []byte) error) error {
	raw, err := readFileInto(s.path(hash), s.takeBuffer())
	defer s.putBuffer(raw)
	if err != nil {
		return err
	}
	bundle, err := unframeSpill(raw)
	if err != nil {
		return fmt.Errorf("serve: spill %s: %w", hash[:12], err)
	}
	// The address is the proof: a store that returns bytes not hashing to
	// the requested address has been corrupted in a way the per-frame CRCs
	// missed (or tampered with), and must not be deserialized.
	if got := bundleHash(bundle); got != hash {
		return fmt.Errorf("serve: spill %s: content hash mismatch (%s)", hash[:12], got[:12])
	}
	return use(bundle)
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

// readFileInto reads the whole file at path into buf, growing it when the
// file is larger, and returns the file's bytes: exactly its length as
// stat reports it, so no byte of an earlier, longer file shows past them.
// Spill files are renamed into place whole and never written again, so an
// open file's length cannot change under the read.
func readFileInto(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf[:0], err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return buf[:0], err
	}
	size := fi.Size()
	if int64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(f, buf); err != nil {
		return buf[:0], err
	}
	return buf, nil
}

// unframeSpill checks a spill file's frames in place and returns the
// bundle they carry: one chunk's payload as is, several joined.
func unframeSpill(raw []byte) ([]byte, error) {
	typ, payload, rest, err := cluster.SplitFrame(raw)
	if err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if typ != spillHeader || len(payload) != 12 {
		return nil, fmt.Errorf("bad header frame (type %#x, %d bytes)", typ, len(payload))
	}
	total := int(u64le(payload))
	nChunks := int(u32le(payload[8:]))
	if total < 0 || total > len(raw) || nChunks < 1 || nChunks > (total/spillChunkSize)+1 {
		return nil, fmt.Errorf("implausible header (%d bytes, %d chunks)", total, nChunks)
	}
	var bundle []byte
	if nChunks > 1 {
		bundle = make([]byte, 0, total)
	}
	for i := 0; i < nChunks; i++ {
		typ, payload, rest, err = cluster.SplitFrame(rest)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		if typ != spillChunk {
			return nil, fmt.Errorf("chunk %d has type %#x", i, typ)
		}
		if nChunks == 1 {
			bundle = payload
		} else {
			bundle = append(bundle, payload...)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the last chunk", len(rest))
	}
	if len(bundle) != total {
		return nil, fmt.Errorf("%d bytes reassembled, header says %d", len(bundle), total)
	}
	return bundle, nil
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

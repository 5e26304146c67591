package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
)

// The session checkpoint log makes encrypted sessions durable: an
// append-only record stream snapshotting each session's serialized
// ciphertext state and step counter after every successful step, replayed
// at boot so a coordinator restart resumes in-flight sessions bit-exactly
// (ckks serialization is exact u64 limbs, and the executor replays from
// real runtime levels, so a restored state continues exactly where the
// uninterrupted run would be).
//
// Records reuse the wire v2 codec discipline verbatim — cluster.WriteFrame
// and cluster.ReadFrame, i.e. [u32 LE length][u8 type][payload][u32 LE
// crc32c(type||payload)] — with record types disjoint from the RPC frame
// types, so a checkpoint log can never be mistaken for a transport stream.
// Replay trusts the log only as far as its CRCs: the first torn, truncated
// or checksum-failing record ends replay and the damaged tail is truncated
// away (a crash mid-append costs at most the final record, never the log).
const (
	recSessionCreate byte = 0x81 // id, tenant, program, touch nanos
	recSessionStep   byte = 0x82 // id, step counter, touch nanos, ciphertext state
	recSessionClose  byte = 0x83 // id (explicit close or TTL eviction tombstone)
)

// maxLogString bounds id/tenant/program lengths on replay, so a
// CRC-colliding corruption cannot force a large allocation.
const maxLogString = 1 << 12

// Compaction thresholds: once the log holds compactMinRecords records and
// at least compactFactor× the live-session count, the sweeper rewrites it
// as one create+step snapshot per live session (dropping closed sessions'
// tombstones and superseded step checkpoints).
const (
	compactMinRecords = 64
	compactFactor     = 4
)

var errSessionLogClosed = errors.New("serve: session log closed")

// sessionCheckpoint is the loggable view of one session, captured under
// the session's own mutex. The state pointer is safe to serialize after
// the lock is released: a step installs a fresh ciphertext rather than
// mutating the old one.
type sessionCheckpoint struct {
	id      string
	tenant  string
	program string
	steps   int
	touch   int64 // unix nanos of last activity
	state   *ckks.Ciphertext
}

// sessionLog owns the checkpoint file. Appends are serialized, flushed and
// fsynced per record: a session step is hundreds of milliseconds of FHE
// work, so one synchronous metadata-sized write (plus the ciphertext,
// tens of KB at serving parameters) is noise — and the durability claim
// ("a restart resumes every acknowledged step") holds unconditionally.
type sessionLog struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	bw      *bufio.Writer
	records int // appended since open/compact (compaction heuristic)
}

// sessionLogStats summarizes one boot replay.
type sessionLogStats struct {
	restored  int   // sessions alive after replay and TTL filtering
	expired   int   // sessions dropped as already TTL-expired
	orphaned  int   // step records skipped for ids never seen created
	truncated bool  // the tail was damaged and cut off
	goodSize  int64 // file offset of the end of the last intact record
}

// openSessionLog opens (creating if absent) and replays the checkpoint
// log, returning the append handle plus the surviving sessions. A damaged
// tail is truncated in place so subsequent appends extend a clean log.
func openSessionLog(path string, params *ckks.Parameters, ttl time.Duration, now time.Time) (*sessionLog, map[string]*session, sessionLogStats, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, sessionLogStats{}, err
	}
	sessions, stats := replaySessions(f, params, ttl, now)
	if stats.truncated {
		if err := f.Truncate(stats.goodSize); err != nil {
			f.Close()
			return nil, nil, stats, fmt.Errorf("truncating damaged tail: %w", err)
		}
	}
	if _, err := f.Seek(stats.goodSize, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, stats, err
	}
	l := &sessionLog{path: path, f: f, bw: bufio.NewWriterSize(f, 1<<16)}
	return l, sessions, stats, nil
}

// countingReader tracks bytes consumed from the underlying file so replay
// can compute the offset of the last intact record (consumed minus
// whatever still sits in the bufio lookahead).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// replaySessions walks the record stream from the file's start, applying
// create/step/close records in order, then drops sessions whose last
// touch is already past the TTL (their state would be evicted on the
// first sweep anyway — and a client cannot hold a valid handle across an
// idle window longer than the TTL). Any framing, CRC or decode failure
// ends the walk: everything before it is intact (each record carries its
// own CRC), everything after is untrusted.
func replaySessions(r io.Reader, params *ckks.Parameters, ttl time.Duration, now time.Time) (map[string]*session, sessionLogStats) {
	cr := &countingReader{r: r}
	br := bufio.NewReaderSize(cr, 1<<16)
	sessions := map[string]*session{}
	var stats sessionLogStats
	for {
		typ, payload, err := cluster.ReadFrame(br)
		if err != nil {
			// io.EOF exactly at a record boundary is the clean end; anything
			// else — short frame, implausible length, CRC mismatch — is a
			// damaged tail to cut off.
			stats.truncated = !errors.Is(err, io.EOF)
			break
		}
		if !applySessionRecord(sessions, typ, payload, params, &stats) {
			stats.truncated = true
			break
		}
		stats.goodSize = cr.n - int64(br.Buffered())
	}
	for id, sess := range sessions {
		if now.Sub(time.Unix(0, sess.last.Load())) > ttl {
			delete(sessions, id)
			stats.expired++
		}
	}
	stats.restored = len(sessions)
	return sessions, stats
}

// applySessionRecord folds one CRC-verified record into the session map,
// reporting false when the payload does not decode (version skew or a
// checksum collision — either way the log is untrusted from here on).
// A step record for an unknown id is NOT corruption: a lost create append
// (log error, crash between fsyncs) orphans that session's later steps,
// and truncating here would destroy every intact session recorded after
// it. Orphans are skipped and counted instead; truncation is reserved for
// framing, CRC and decode failures.
func applySessionRecord(sessions map[string]*session, typ byte, payload []byte, params *ckks.Parameters, stats *sessionLogStats) bool {
	r := bytes.NewReader(payload)
	switch typ {
	case recSessionCreate:
		id, err1 := readLogString(r)
		tenant, err2 := readLogString(r)
		program, err3 := readLogString(r)
		var touch int64
		err4 := binary.Read(r, binary.LittleEndian, &touch)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || id == "" {
			return false
		}
		sess := &session{id: id, tenant: tenant, program: program}
		sess.last.Store(touch)
		sessions[id] = sess
	case recSessionStep:
		id, err1 := readLogString(r)
		var steps uint32
		var touch int64
		err2 := binary.Read(r, binary.LittleEndian, &steps)
		err3 := binary.Read(r, binary.LittleEndian, &touch)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		ct, err := ckks.ReadCiphertext(r, params)
		if err != nil {
			return false
		}
		sess, ok := sessions[id]
		if !ok {
			stats.orphaned++
			return true
		}
		sess.state = ct
		sess.steps = int(steps)
		sess.last.Store(touch)
	case recSessionClose:
		id, err := readLogString(r)
		if err != nil {
			return false
		}
		delete(sessions, id)
	default:
		return false // unknown record type: a future version wrote this log
	}
	return true
}

func appendLogString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func readLogString(r *bytes.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if int(n) > maxLogString || int(n) > r.Len() {
		return "", fmt.Errorf("serve: log string length %d implausible", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func encodeCreateRecord(cp sessionCheckpoint) []byte {
	b := make([]byte, 0, 6+len(cp.id)+len(cp.tenant)+len(cp.program)+8)
	b = appendLogString(b, cp.id)
	b = appendLogString(b, cp.tenant)
	b = appendLogString(b, cp.program)
	return binary.LittleEndian.AppendUint64(b, uint64(cp.touch))
}

func encodeStepRecord(cp sessionCheckpoint) []byte {
	b := make([]byte, 0, 2+len(cp.id)+12+cp.state.EncodedLen())
	b = appendLogString(b, cp.id)
	b = binary.LittleEndian.AppendUint32(b, uint32(cp.steps))
	b = binary.LittleEndian.AppendUint64(b, uint64(cp.touch))
	return cp.state.Append(b)
}

// append writes one record, flushes it and fsyncs (l.mu held by callers
// via the exported appenders).
func (l *sessionLog) append(typ byte, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errSessionLogClosed
	}
	if err := cluster.WriteFrame(l.bw, typ, payload); err != nil {
		return err
	}
	if err := l.bw.Flush(); err != nil {
		return err
	}
	l.records++
	return l.f.Sync()
}

func (l *sessionLog) appendCreate(cp sessionCheckpoint) error {
	return l.append(recSessionCreate, encodeCreateRecord(cp))
}

func (l *sessionLog) appendStep(cp sessionCheckpoint) error {
	return l.append(recSessionStep, encodeStepRecord(cp))
}

func (l *sessionLog) appendClose(id string) error {
	return l.append(recSessionClose, appendLogString(nil, id))
}

// shouldCompact reports whether the log has accumulated enough superseded
// records (old step checkpoints, closed sessions) to be worth rewriting.
func (l *sessionLog) shouldCompact(live int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f != nil && l.records >= compactMinRecords && l.records >= compactFactor*live
}

// compact rewrites the log as one create(+step) snapshot per live session
// — TTL pruning for the file: expired and closed sessions' records
// disappear — then atomically replaces the old log and continues
// appending to the new one. Appends are held out for the duration (the
// store additionally holds them out across snapshot+rename via its
// compactMu, so the snapshot can never miss a record appended to the old
// file). A failure before the rename leaves the original log untouched; a
// reopen failure after it marks the log broken (all appends fail counted)
// rather than appending to the renamed-over inode.
func (l *sessionLog) compact(live []sessionCheckpoint) (err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errSessionLogClosed
	}
	tmpPath := l.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpPath)
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<16)
	written := 0
	for _, cp := range live {
		if err = cluster.WriteFrame(bw, recSessionCreate, encodeCreateRecord(cp)); err != nil {
			return err
		}
		written++
		if cp.state == nil {
			continue // created but never stepped: no state to checkpoint
		}
		if err = cluster.WriteFrame(bw, recSessionStep, encodeStepRecord(cp)); err != nil {
			return err
		}
		written++
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmpPath, l.path); err != nil {
		return err
	}
	old := l.f
	f, rerr := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	old.Close()
	if rerr != nil {
		// The old handle's inode was just renamed over: appending to it
		// would fsync into an unlinked file — durable-looking, durable-not.
		// Mark the log broken instead, so every subsequent append fails and
		// is counted, rather than one error hiding silent non-durability.
		l.f = nil
		return fmt.Errorf("reopening compacted log: %w", rerr)
	}
	l.f = f
	l.bw = bufio.NewWriterSize(l.f, 1<<16)
	l.records = written
	return nil
}

func (l *sessionLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return
	}
	l.bw.Flush()
	l.f.Sync()
	l.f.Close()
	l.f = nil
}

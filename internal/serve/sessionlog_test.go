package serve

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cinnamon/internal/cluster"
)

func closeCoreT(t testing.TB, core *Core) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := core.Close(ctx); err != nil {
		t.Fatalf("core.Close: %v", err)
	}
}

// TestSessionLogResumeBitExact is the durability contract: a session
// stepped, checkpointed, and resumed by a fresh coordinator over the same
// log must continue bit-identically to a session that never saw a restart.
func TestSessionLogResumeBitExact(t *testing.T) {
	reg := testEnv(t)
	logPath := filepath.Join(t.TempDir(), "sessions.log")
	ct, _ := encryptRandom(t, 31)
	ctx := context.Background()

	core := NewCore(reg, Config{Workers: 1, SessionLog: logPath})
	info, err := core.CreateSession(testTenant, "square")
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if _, _, err := core.SessionStep(ctx, info.ID, ct); err != nil {
		t.Fatalf("step 1: %v", err)
	}
	closeCoreT(t, core) // "crash" after an acknowledged step

	// Control: the same session stepped twice with no restart, no log.
	ctrl := NewCore(reg, Config{Workers: 1})
	ci, err := ctrl.CreateSession(testTenant, "square")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctrl.SessionStep(ctx, ci.ID, ct); err != nil {
		t.Fatal(err)
	}
	ctrlOut, _, err := ctrl.SessionStep(ctx, ci.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	closeCoreT(t, ctrl)

	// Restarted coordinator: replay the log, resume the session.
	core2, err := NewDurableCore(reg, Config{Workers: 1, SessionLog: logPath})
	if err != nil {
		t.Fatalf("NewDurableCore after restart: %v", err)
	}
	defer closeCoreT(t, core2)
	if got := core2.met.SessionRestores.Load(); got != 1 {
		t.Fatalf("session_restores_total = %d, want 1", got)
	}
	si, err := core2.Session(info.ID)
	if err != nil {
		t.Fatalf("restored session lookup: %v", err)
	}
	if si.Steps != 1 || si.Tenant != testTenant || si.Program != "square" {
		t.Fatalf("restored session = %+v, want steps 1, tenant %q, program square", si, testTenant)
	}
	resumed, si2, err := core2.SessionStep(ctx, info.ID, nil)
	if err != nil {
		t.Fatalf("resumed step: %v", err)
	}
	if si2.Steps != 2 {
		t.Fatalf("resumed steps = %d, want 2", si2.Steps)
	}
	var a, b bytes.Buffer
	if err := resumed.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := ctrlOut.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("resumed step-2 ciphertext differs from uninterrupted run (%d vs %d bytes)", a.Len(), b.Len())
	}
}

// writeSteppedLog runs create + nsteps steps against a fresh logging core
// and returns the session id.
func writeSteppedLog(t *testing.T, logPath string, nsteps int) string {
	t.Helper()
	reg := testEnv(t)
	core := NewCore(reg, Config{Workers: 1, SessionLog: logPath})
	info, err := core.CreateSession(testTenant, "square")
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := encryptRandom(t, 77)
	in := ct
	for i := 0; i < nsteps; i++ {
		if _, _, err := core.SessionStep(context.Background(), info.ID, in); err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		in = nil
	}
	closeCoreT(t, core)
	return info.ID
}

// TestSessionLogTruncatedTail: a log whose final record is torn (crash
// mid-append) replays to the last intact checkpoint, the damaged tail is
// cut off, and appends continue cleanly from there.
func TestSessionLogTruncatedTail(t *testing.T) {
	reg := testEnv(t)
	logPath := filepath.Join(t.TempDir(), "sessions.log")
	id := writeSteppedLog(t, logPath, 2)

	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	core, err := NewDurableCore(reg, Config{Workers: 1, SessionLog: logPath})
	if err != nil {
		t.Fatalf("NewDurableCore on truncated log: %v", err)
	}
	si, err := core.Session(id)
	if err != nil {
		t.Fatalf("session lost to a torn tail: %v", err)
	}
	if si.Steps != 1 {
		t.Fatalf("restored steps = %d, want 1 (the torn step-2 record must not count)", si.Steps)
	}
	// The tail was truncated away: stepping and restarting again must
	// replay cleanly to steps=2.
	if _, _, err := core.SessionStep(context.Background(), id, nil); err != nil {
		t.Fatalf("step after truncated replay: %v", err)
	}
	closeCoreT(t, core)
	core2, err := NewDurableCore(reg, Config{Workers: 1, SessionLog: logPath})
	if err != nil {
		t.Fatal(err)
	}
	defer closeCoreT(t, core2)
	if si, err = core2.Session(id); err != nil || si.Steps != 2 {
		t.Fatalf("second replay: steps=%d err=%v, want steps=2", si.Steps, err)
	}
}

// TestSessionLogCorruptRecord: a CRC-failing record ends replay at the
// last intact prefix — flipped bits in the final record lose only that
// record; flipped bits in the first record lose the log but never crash
// or corrupt the boot.
func TestSessionLogCorruptRecord(t *testing.T) {
	reg := testEnv(t)
	for _, tc := range []struct {
		name      string
		corruptAt func(size int64) int64
		wantSess  bool
		wantSteps int
	}{
		{"tail-record", func(size int64) int64 { return size - 10 }, true, 1},
		{"first-record", func(size int64) int64 { return 6 }, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			logPath := filepath.Join(t.TempDir(), "sessions.log")
			id := writeSteppedLog(t, logPath, 2)
			data, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			data[tc.corruptAt(int64(len(data)))] ^= 0xff
			if err := os.WriteFile(logPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			core, err := NewDurableCore(reg, Config{Workers: 1, SessionLog: logPath})
			if err != nil {
				t.Fatalf("NewDurableCore on corrupt log: %v", err)
			}
			defer closeCoreT(t, core)
			si, err := core.Session(id)
			if tc.wantSess {
				if err != nil {
					t.Fatalf("session lost: %v", err)
				}
				if si.Steps != tc.wantSteps {
					t.Fatalf("steps = %d, want %d", si.Steps, tc.wantSteps)
				}
			} else if err == nil {
				t.Fatalf("session survived corruption of its create record: %+v", si)
			}
		})
	}
}

// TestSessionLogTTLExpiredReplay: sessions whose last touch predates the
// TTL are dropped at replay, not resurrected.
func TestSessionLogTTLExpiredReplay(t *testing.T) {
	reg := testEnv(t)
	logPath := filepath.Join(t.TempDir(), "sessions.log")
	id := writeSteppedLog(t, logPath, 1)

	time.Sleep(60 * time.Millisecond)
	core, err := NewDurableCore(reg, Config{Workers: 1, SessionLog: logPath, SessionTTL: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer closeCoreT(t, core)
	if _, err := core.Session(id); err == nil {
		t.Fatal("TTL-expired session was resurrected at replay")
	}
	if got := core.met.SessionRestores.Load(); got != 0 {
		t.Fatalf("session_restores_total = %d, want 0", got)
	}
	if got := core.met.SessionsEvicted.Load(); got != 1 {
		t.Fatalf("sessions_evicted = %d, want 1 (the expired replay)", got)
	}
}

// TestSessionLogCompaction: once superseded records dominate, compact
// rewrites the log to one create+step snapshot per live session, and the
// compacted log replays identically.
func TestSessionLogCompaction(t *testing.T) {
	reg := testEnv(t)
	logPath := filepath.Join(t.TempDir(), "sessions.log")
	now := time.Now()
	l, sessions, _, err := openSessionLog(logPath, reg.Params, time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 0 {
		t.Fatalf("fresh log replayed %d sessions", len(sessions))
	}
	ct, _ := encryptRandom(t, 5)
	live := sessionCheckpoint{id: "live", tenant: testTenant, program: "square", steps: 3, touch: now.UnixNano(), state: ct}
	if err := l.appendCreate(live); err != nil {
		t.Fatal(err)
	}
	if err := l.appendStep(live); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < compactMinRecords; i++ {
		dead := sessionCheckpoint{id: fmt.Sprintf("dead-%d", i), tenant: testTenant, program: "square", touch: now.UnixNano()}
		if err := l.appendCreate(dead); err != nil {
			t.Fatal(err)
		}
		if err := l.appendClose(dead.id); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := os.Stat(logPath)
	if !l.shouldCompact(1) {
		t.Fatal("log full of tombstones should want compaction")
	}
	if err := l.compact([]sessionCheckpoint{live}); err != nil {
		t.Fatalf("compact: %v", err)
	}
	after, _ := os.Stat(logPath)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before.Size(), after.Size())
	}
	// Appends continue on the compacted log, and replay sees exactly the
	// live session.
	if err := l.appendClose("never-existed"); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	l.close()
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	replayed, stats := replaySessions(f, reg.Params, time.Hour, now)
	if stats.truncated {
		t.Fatal("compacted log replayed as damaged")
	}
	if len(replayed) != 1 {
		t.Fatalf("replayed %d sessions, want 1", len(replayed))
	}
	sess := replayed["live"]
	if sess == nil || sess.steps != 3 || sess.tenant != testTenant {
		t.Fatalf("live session mangled by compaction: %+v", sess)
	}
	var got, want bytes.Buffer
	if err := sess.state.Write(&got); err != nil {
		t.Fatal(err)
	}
	if err := ct.Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("compacted state not bit-identical")
	}
}

// TestSessionLogOrphanStepSkipped: a step record for an id never seen
// created (e.g. its create append was lost to a log error) is skipped and
// counted — it must NOT be treated as corruption, which would truncate
// away every intact session recorded after it.
func TestSessionLogOrphanStepSkipped(t *testing.T) {
	reg := testEnv(t)
	now := time.Now()
	ct, _ := encryptRandom(t, 4)
	var buf bytes.Buffer
	write := func(typ byte, payload []byte) {
		t.Helper()
		if err := cluster.WriteFrame(&buf, typ, payload); err != nil {
			t.Fatal(err)
		}
	}
	a := sessionCheckpoint{id: "a", tenant: testTenant, program: "square", steps: 1, touch: now.UnixNano(), state: ct}
	ghost := sessionCheckpoint{id: "ghost", tenant: testTenant, program: "square", steps: 2, touch: now.UnixNano(), state: ct}
	b := sessionCheckpoint{id: "b", tenant: testTenant, program: "square", steps: 3, touch: now.UnixNano(), state: ct}
	write(recSessionCreate, encodeCreateRecord(a))
	stepA := encodeStepRecord(a)
	write(recSessionStep, stepA)
	stepGhost := encodeStepRecord(ghost) // no create record for "ghost"
	write(recSessionStep, stepGhost)
	write(recSessionCreate, encodeCreateRecord(b))
	stepB := encodeStepRecord(b)
	write(recSessionStep, stepB)

	size := int64(buf.Len())
	replayed, stats := replaySessions(bytes.NewReader(buf.Bytes()), reg.Params, time.Hour, now)
	if stats.truncated {
		t.Fatal("orphaned step record treated as a damaged tail")
	}
	if stats.goodSize != size {
		t.Fatalf("goodSize = %d, want %d (the whole log is intact)", stats.goodSize, size)
	}
	if stats.orphaned != 1 {
		t.Fatalf("orphaned = %d, want 1", stats.orphaned)
	}
	if len(replayed) != 2 {
		t.Fatalf("replayed %d sessions, want 2 (a and b)", len(replayed))
	}
	if sess := replayed["a"]; sess == nil || sess.steps != 1 {
		t.Fatalf("session a mangled: %+v", sess)
	}
	if sess := replayed["b"]; sess == nil || sess.steps != 3 {
		t.Fatalf("session b lost after the orphan record: %+v", sess)
	}
	if _, ok := replayed["ghost"]; ok {
		t.Fatal("orphaned session resurrected without a create record")
	}
}

// TestSessionLogCompactionRace: compaction running concurrently with live
// creates and steps must never drop an acknowledged record — the snapshot
// and rename are exclusive against appends, so every session replays with
// its full acknowledged step count after a restart.
func TestSessionLogCompactionRace(t *testing.T) {
	reg := testEnv(t)
	logPath := filepath.Join(t.TempDir(), "sessions.log")
	core := NewCore(reg, Config{Workers: 2, SessionLog: logPath})
	ct, _ := encryptRandom(t, 3)
	ctx := context.Background()

	// The sweeper's compaction cadence is seconds; hammer it directly so
	// compactions genuinely interleave with the appends below.
	stop := make(chan struct{})
	var compactor sync.WaitGroup
	compactor.Add(1)
	go func() {
		defer compactor.Done()
		for {
			select {
			case <-stop:
				return
			default:
				core.sessions.maybeCompact()
			}
		}
	}()

	const nSessions, nSteps = 6, 14
	ids := make([]string, nSessions)
	var wg sync.WaitGroup
	errCh := make(chan error, nSessions)
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, err := core.CreateSession(testTenant, "square")
			if err != nil {
				errCh <- err
				return
			}
			ids[i] = info.ID
			for s := 0; s < nSteps; s++ {
				// Re-seed every step: chained steps would exhaust levels
				// without the bootstrap service, and this test is about the
				// log, not depth.
				if _, _, err := core.SessionStep(ctx, info.ID, ct); err != nil {
					errCh <- fmt.Errorf("session %d step %d: %w", i, s, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	compactor.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := core.met.SessionLogErrors.Load(); got != 0 {
		t.Fatalf("session_log_errors = %d during compaction race, want 0", got)
	}
	closeCoreT(t, core)

	core2, err := NewDurableCore(reg, Config{Workers: 2, SessionLog: logPath})
	if err != nil {
		t.Fatalf("NewDurableCore after compaction race: %v", err)
	}
	defer closeCoreT(t, core2)
	if got := core2.met.SessionRestores.Load(); got != nSessions {
		t.Fatalf("session_restores_total = %d, want %d", got, nSessions)
	}
	for i, id := range ids {
		si, err := core2.Session(id)
		if err != nil {
			t.Fatalf("session %d (%s) lost across restart: %v", i, id, err)
		}
		if si.Steps != nSteps {
			t.Fatalf("session %d replayed %d steps, want %d (acknowledged step dropped by compaction)", i, si.Steps, nSteps)
		}
	}
}

// FuzzSessionLogReplay: replay of arbitrary bytes must terminate without
// panicking, never claim a good prefix longer than the input, and keep the
// restored count consistent with the returned map.
func FuzzSessionLogReplay(f *testing.F) {
	reg := testEnv(f)
	ct, _ := encryptRandom(f, 9)
	var seed bytes.Buffer
	cp := sessionCheckpoint{id: "fuzz", tenant: testTenant, program: "square", steps: 1, touch: time.Now().UnixNano(), state: ct}
	if err := cluster.WriteFrame(&seed, recSessionCreate, encodeCreateRecord(cp)); err != nil {
		f.Fatal(err)
	}
	step := encodeStepRecord(cp)
	if err := cluster.WriteFrame(&seed, recSessionStep, step); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-7]) // torn tail
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		sessions, stats := replaySessions(bytes.NewReader(data), reg.Params, time.Hour, time.Now())
		if stats.goodSize > int64(len(data)) {
			t.Fatalf("goodSize %d beyond input length %d", stats.goodSize, len(data))
		}
		if stats.restored != len(sessions) {
			t.Fatalf("restored %d != %d sessions", stats.restored, len(sessions))
		}
		for id, sess := range sessions {
			if sess == nil || sess.id != id {
				t.Fatalf("mangled session entry %q", id)
			}
		}
	})
}

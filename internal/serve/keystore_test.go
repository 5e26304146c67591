package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/workloads"
)

// seededImages returns the wire images of a bundle (relinearization key
// plus two rotation keys) and of a ciphertext, all drawn from fixed seeds:
// key generation and encryption are deterministic per generator.
func seededImages(t *testing.T) (bundle, ct []byte) {
	t.Helper()
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 5, LogQ: []int{45, 40, 40}, LogP: []int{50, 50}, LogScale: 40, Seed: 20261016,
	})
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	rtks, err := kg.GenRotationKeySet(sk, []int{1, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]*ckks.EvalKey{"rlk": rlk, "rot:1": rtks.Keys[1], "rot:2": rtks.Keys[2]}
	var b bytes.Buffer
	if err := WriteKeyBundle(&b, keys); err != nil {
		t.Fatal(err)
	}
	v := make([]complex128, params.Slots())
	for i := range v {
		v[i] = complex(float64(i%7)/7-0.5, float64(i%3)/3)
	}
	pt, err := ckks.NewEncoder(params).Encode(v, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	c, err := ckks.NewEncryptor(params, pk).Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	if err := c.Write(&cb); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), cb.Bytes()
}

// TestWireImagesPinned: the bundle and ciphertext byte formats are a
// compatibility contract. Clients encode both themselves (the bundle is the
// key upload format, and each spill record carries one of its key
// entries), so an encoder change that moves a single byte must fail here.
func TestWireImagesPinned(t *testing.T) {
	bundle, ct := seededImages(t)
	for _, c := range []struct {
		name, want string
		image      []byte
	}{
		{"bundle", "e9ffadf0af2bcf64386eeccb69b82131792a823950354a2165fee5438117ce20", bundle},
		{"ciphertext", "d3d1f279473549cd2d52292569060067deb402c3482081471bb4154842ae8468", ct},
	} {
		sum := sha256.Sum256(c.image)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s image (%d bytes): sha256 %s, pinned %s", c.name, len(c.image), got, c.want)
		}
	}
}

// rawEntries splits bundle into n key entries, of equal length but the
// last, which takes the rest.
func rawEntries(bundle []byte, n int) [][]byte {
	entries := make([][]byte, n)
	step := len(bundle) / n
	for i := range entries {
		entries[i] = bundle[i*step : (i+1)*step]
	}
	entries[n-1] = bundle[(n-1)*step:]
	return entries
}

// saveRaw spills raw key entries to a fresh file, as records named k0,
// k1, … unless names are given.
func saveRaw(t *testing.T, s *keyStore, entries [][]byte, names ...string) spillLayout {
	t.Helper()
	if names == nil {
		for i := range entries {
			names = append(names, fmt.Sprintf("k%d", i))
		}
	}
	l, err := s.Save(names, func(b []byte, i int) []byte { return append(b, entries[i]...) })
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// loadCopy loads the records recs of a spilled bundle and returns their
// entries joined: Load lends each entry only for the duration of its
// callback.
func loadCopy(s *keyStore, l spillLayout, recs []spillRecord) ([]byte, error) {
	var out []byte
	err := s.Load(&l, recs, func(_ *spillRecord, entry []byte) error {
		out = append(out, entry...)
		return nil
	})
	return out, err
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

// TestCorruptSpillRewrittenOnReRegister: two tenants registering
// identical keys get a spill file each. When a's rots, its first reload
// drops it, and its re-registration writes a fresh file it serves from;
// b's reloads never read a's file.
func TestCorruptSpillRewrittenOnReRegister(t *testing.T) {
	params := testEnv(t).Params
	store, err := newKeyStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := genTenantKeys(t, params)
	c := newKeyCache(params, bundleSize(t, keys), store) // one bundle resident
	for _, id := range []string{"a", "b"} {              // b evicts a
		if err := c.register(id, keys); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	path := c.tenants["a"].spill.path
	shared := c.tenants["b"].spill.path == path
	c.mu.Unlock()
	if shared {
		t.Fatal("two registrations of identical keys share a spill file")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("a reloaded from a rotten spill file")
	}
	if err := c.register("a", keys); err != nil { // evicts b
		t.Fatal(err)
	}
	if keys, ok := c.get("b"); !ok || keys["rlk"] == nil {
		t.Fatal("b's reload failed after a's file rotted")
	}
	spillAll(c) // a's next get reads its fresh file
	if keys, ok := c.get("a"); !ok || keys["rlk"] == nil {
		t.Fatal("a's reload failed after it re-registered")
	}
	if s := c.stats(); s.SpillLoadFails != 1 {
		t.Fatalf("spill_load_failures = %d, want 1", s.SpillLoadFails)
	}
}

// writeSpill writes a spill file of the given header and key-frame
// payloads, each in a CRC-valid frame.
func writeSpill(t *testing.T, path string, hdr []byte, frames ...[]byte) {
	t.Helper()
	var out bytes.Buffer
	if err := cluster.WriteFrame(&out, spillHeader, hdr); err != nil {
		t.Fatal(err)
	}
	for _, p := range frames {
		if err := cluster.WriteFrame(&out, spillKey, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// splitSpill returns a saved spill file's header payload and key-frame
// payloads.
func splitSpill(t *testing.T, path string) (hdr []byte, frames [][]byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, hdr, rest, err := cluster.SplitFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	for len(rest) > 0 {
		var p []byte
		if _, p, rest, err = cluster.SplitFrame(rest); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, p)
	}
	return hdr, frames
}

// TestKeyStoreRejectsTamperedContent: a key frame rewritten with a valid
// CRC passes every frame check; only the record's SHA-256 digest catches
// it, and only a load that reads that record fails. A rewritten header is
// caught by a full load's count and total check.
func TestKeyStoreRejectsTamperedContent(t *testing.T) {
	store, err := newKeyStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bundle := bytes.Repeat([]byte("tenant key material "), 200)
	entries := rawEntries(bundle, 2)
	l := saveRaw(t, store, entries)
	hdr, frames := splitSpill(t, l.path)
	if len(frames) != 2 || !bytes.Equal(frames[1], entries[1]) {
		t.Fatalf("saved file holds %d key frames", len(frames))
	}
	tampered := bytes.Clone(frames[1])
	tampered[len(tampered)/3] ^= 0x01
	writeSpill(t, l.path, hdr, frames[0], tampered)
	for _, recs := range [][]spillRecord{l.recs, l.recs[1:]} {
		if _, err := loadCopy(store, l, recs); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
			t.Fatalf("CRC-valid tampered record, %d-record load: err %v, want a digest mismatch", len(recs), err)
		}
	}
	if got, err := loadCopy(store, l, l.recs[:1]); err != nil || !bytes.Equal(got, entries[0]) {
		t.Fatalf("load of the untouched record: %d bytes, %v", len(got), err)
	}

	// A CRC-valid header that miscounts the keys fails a full load only:
	// the other loads do not read it.
	bad := bytes.Clone(hdr)
	bad[8]++
	writeSpill(t, l.path, bad, frames...)
	if _, err := loadCopy(store, l, l.recs); err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("full load under a miscounting header: err %v, want a header error", err)
	}
	if _, err := loadCopy(store, l, l.recs[:1]); err != nil {
		t.Fatalf("one-record load under a miscounting header: %v", err)
	}
}

// TestKeyStoreTruncationSweep cuts a small spill file at every byte, and
// appends one: every variant but the whole file must fail a full load and
// a one-record load of the last key. The sweep then runs again through
// the buffer the whole file was read into, so a cut file that decoded the
// longer file's stale bytes would pass.
func TestKeyStoreTruncationSweep(t *testing.T) {
	store, err := newKeyStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bundle := bytes.Repeat([]byte{0x5a, 0xa5, 0x33}, 70)
	l := saveRaw(t, store, rawEntries(bundle, 3))
	raw, err := os.ReadFile(l.path)
	if err != nil {
		t.Fatal(err)
	}
	loads := []struct {
		name string
		recs []spillRecord
	}{{"full", l.recs}, {"last-key", l.recs[2:]}}
	sweep := func(recycled bool) {
		t.Helper()
		for cut := len(raw) - 1; cut >= 0; cut-- {
			if recycled && (len(store.free) != 1 || cap(store.free[0]) < len(raw)) {
				t.Fatalf("store keeps %d buffers, want one of at least %d bytes", len(store.free), len(raw))
			}
			if err := os.WriteFile(l.path, raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			for _, ld := range loads {
				if _, err := loadCopy(store, l, ld.recs); err == nil {
					t.Fatalf("%s load of a spill file cut at %d of %d bytes succeeded (recycled buffer: %v)", ld.name, cut, len(raw), recycled)
				}
			}
		}
		if err := os.WriteFile(l.path, append(bytes.Clone(raw), 0), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, ld := range loads {
			if _, err := loadCopy(store, l, ld.recs); err == nil {
				t.Fatalf("%s load of a spill file with a trailing byte succeeded", ld.name)
			}
		}
	}
	sweep(false)
	if err := os.WriteFile(l.path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := loadCopy(store, l, l.recs); err != nil || !bytes.Equal(got, bundle) {
		t.Fatalf("whole file: %d bytes, %v", len(got), err)
	}
	if got, err := loadCopy(store, l, l.recs[2:]); err != nil || !bytes.Equal(got, rawEntries(bundle, 3)[2]) {
		t.Fatalf("whole file, last key: %d bytes, %v", len(got), err)
	}
	sweep(true)
}

// TestKeyStoreMultiChunk: a key record past one frame round-trips, and
// the joined path keeps every check: a file cut at the frame boundary and
// a CRC-valid tamper in the record's second frame both fail.
func TestKeyStoreMultiChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a 32 MiB spill file")
	}
	store, err := newKeyStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bundle := make([]byte, spillChunkSize+4096)
	for i := range bundle {
		bundle[i] = byte(i * 7)
	}
	entries := [][]byte{bundle[:len(bundle)-100], bundle[len(bundle)-100:]}
	l := saveRaw(t, store, entries, "big", "small")
	if got, err := loadCopy(store, l, l.recs); err != nil || !bytes.Equal(got, bundle) {
		t.Fatalf("multi-frame round trip: %d bytes, %v", len(got), err)
	}
	if got, err := loadCopy(store, l, l.recs[:1]); err != nil || !bytes.Equal(got, entries[0]) {
		t.Fatalf("multi-frame record alone: %d bytes, %v", len(got), err)
	}
	hdr, frames := splitSpill(t, l.path)
	if len(frames) != 3 {
		t.Fatalf("%d key frames, want 3 (two for big, one for small)", len(frames))
	}
	writeSpill(t, l.path, hdr, frames[0])
	for _, recs := range [][]spillRecord{l.recs, l.recs[:1]} {
		if _, err := loadCopy(store, l, recs); err == nil {
			t.Fatalf("%d-record load of a file cut at the frame boundary succeeded", len(recs))
		}
	}
	frames[1][0] ^= 0x01
	writeSpill(t, l.path, hdr, frames...)
	if _, err := loadCopy(store, l, l.recs[:1]); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("CRC-valid tampered second frame: Load err %v, want a digest mismatch", err)
	}
	if got, err := loadCopy(store, l, l.recs[1:]); err != nil || !bytes.Equal(got, entries[1]) {
		t.Fatalf("load of the untouched record: %d bytes, %v", len(got), err)
	}
}

// TestColdReloadAllocCeiling: a cold reload of a logN 10 bundle (rlk plus
// eight rotation keys) costs one decode — about the bundle's bytes — and
// nothing else: the file is read into a buffer the store recycles, and
// the decode reads it in place. Tenant b is hot, so the frequency gate
// declines every reload of a and each measured get is a cold reload.
func TestColdReloadAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is perturbed by the race detector")
	}
	params, err := ckks.NewParameters(workloads.ServeParamsLiteral(10, 4, 20260805))
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
	ids := []string{"a", "b"}
	bundles := make([]map[string]*ckks.EvalKey, len(ids))
	for i := range bundles {
		sk, err := kg.GenSecretKey()
		if err != nil {
			t.Fatal(err)
		}
		rlk, err := kg.GenRelinKey(sk)
		if err != nil {
			t.Fatal(err)
		}
		rtks, err := kg.GenRotationKeySet(sk, []int{1, 2, 3, 4, 5, 6, 7, 8}, false)
		if err != nil {
			t.Fatal(err)
		}
		bundles[i] = map[string]*ckks.EvalKey{"rlk": rlk}
		for k, key := range rtks.Keys {
			bundles[i][fmt.Sprintf("rot:%d", k)] = key
		}
	}
	size := bundleSize(t, bundles[0])
	store, err := newKeyStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newKeyCache(params, size+size/2, store) // one tenant resident
	for i, id := range ids {                     // b evicts a
		if err := c.register(id, bundles[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, ok := c.get("b"); !ok {
			t.Fatal("get(b) failed")
		}
	}
	reload := func() {
		if keys, ok := c.get("a"); !ok || len(keys) != 9 {
			t.Fatal("reload of a failed")
		}
	}
	reload() // the store's first read makes the buffer it then recycles
	const runs = 4
	ratio := allocBytes(runs, reload) / float64(size)
	if s := c.stats(); s.ColdMissStalls != runs+1 || s.AdmissionsDeclined != runs+1 {
		t.Fatalf("%d cold reloads, %d declined, want %d of each", s.ColdMissStalls, s.AdmissionsDeclined, runs+1)
	}
	t.Logf("%.1f MB bundle: a cold reload allocates %.2fx its bytes", float64(size)/1e6, ratio)
	if ratio > 1.3 {
		t.Fatalf("cold reload allocated %.2fx the bundle's %d bytes, ceiling 1.3x", ratio, size)
	}

	// A declined reload that names one key reads and decodes that key's
	// record alone.
	partial := func() {
		ks, ok := c.acquire("a", []string{"rlk"})
		if !ok || len(ks.m) != 1 || ks.m["rlk"] == nil {
			t.Fatal("partial reload of a failed")
		}
		c.release(ks)
	}
	before := c.stats().SpillBytesRead
	perLoad := allocBytes(runs, partial)
	read := (c.stats().SpillBytesRead - before) / runs
	c.mu.Lock()
	rec := c.tenants["a"].spill.pick([]string{"rlk"})[0]
	c.mu.Unlock()
	if read != rec.n {
		t.Fatalf("a one-key reload read %d bytes, its record is %d", read, rec.n)
	}
	ratio = perLoad / float64(read)
	t.Logf("one-key reload: %d of %d bytes read, %.2fx allocated", read, size, ratio)
	if ratio > 1.3 {
		t.Fatalf("one-key reload allocated %.2fx the %d bytes it read, ceiling 1.3x", ratio, read)
	}
}

// TestRegisterAllocCeiling: registering a manytenant_churn-sized bundle
// (logN 10, four levels, rlk plus fourteen rotation keys) writes its spill
// file one key entry at a time, so it allocates a fraction of the bundle's
// bytes; building the whole bundle image alone would be 1.0x.
func TestRegisterAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is perturbed by the race detector")
	}
	params, err := ckks.NewParameters(workloads.ServeParamsLiteral(10, 4, 20260805))
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	rtks, err := kg.GenRotationKeySet(sk, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, false)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]*ckks.EvalKey{"rlk": rlk}
	for k, key := range rtks.Keys {
		keys[fmt.Sprintf("rot:%d", k)] = key
	}
	size := bundleSize(t, keys)
	store, err := newKeyStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newKeyCache(params, 2*size, store)
	register := func() {
		if err := c.register("a", keys); err != nil {
			t.Fatal(err)
		}
	}
	register() // the frame writer's first buffer is pooled for the rest
	ratio := allocBytes(4, register) / float64(size)
	t.Logf("%.2f MB bundle: a registration allocates %.3fx its bytes", float64(size)/1e6, ratio)
	if ratio > 0.25 {
		t.Fatalf("registration allocated %.2fx the bundle's %d bytes, ceiling 0.25x", ratio, size)
	}
	c.mu.Lock()
	charge := c.tenants["a"].size
	c.mu.Unlock()
	if charge != size {
		t.Fatalf("the tenant is charged %d bytes, its bundle is %d", charge, size)
	}
}

// TestKeyStoreSweepsLeftovers: opening a spill dir removes the spill files
// an earlier process left in it, and nothing else.
func TestKeyStoreSweepsLeftovers(t *testing.T) {
	dir := t.TempDir()
	leftovers := []string{"0f3a.keys", "123456789.keys"}
	for _, name := range append(leftovers, "notes.txt") {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("old"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := newKeyStore(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range leftovers {
		if fileExists(filepath.Join(dir, name)) {
			t.Fatalf("leftover spill file %s survived newKeyStore", name)
		}
	}
	if !fileExists(filepath.Join(dir, "notes.txt")) {
		t.Fatal("newKeyStore removed a file that is not a spill file")
	}
}

// FuzzSpillRecords writes fuzzed bytes at a fuzzed position over one key
// record of a spilled bundle (the file keeps its length) and loads that
// record alone through the cache's decode: the load fails, or it yields
// the exact key saved.
func FuzzSpillRecords(f *testing.F) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 4, LogQ: []int{40, 40}, LogP: []int{45}, LogScale: 40, Seed: 20261020,
	})
	if err != nil {
		f.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		f.Fatal(err)
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		f.Fatal(err)
	}
	rtks, err := kg.GenRotationKeySet(sk, []int{1}, false)
	if err != nil {
		f.Fatal(err)
	}
	keys := map[string]*ckks.EvalKey{"rlk": rlk, "rot:1": rtks.Keys[1]}
	store, err := newKeyStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	names := sortedNames(keys)
	l, err := store.Save(names, func(b []byte, i int) []byte { return appendKeyEntry(b, names[i], keys[names[i]]) })
	if err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(l.path)
	if err != nil {
		f.Fatal(err)
	}
	for i, r := range l.recs {
		f.Add(uint8(i), uint16(0), []byte{})                              // the record as saved
		f.Add(uint8(i), uint16(r.n/2), []byte{saved[r.off+r.n/2] ^ 0x10}) // one flipped bit
		f.Add(uint8(i), uint16(0), []byte{0xff, 0xff, 0xff, 0xff})        // a frame length past the record
	}
	f.Fuzz(func(t *testing.T, i uint8, at uint16, patch []byte) {
		rec := l.recs[int(i)%len(l.recs)]
		raw := bytes.Clone(saved)
		copy(raw[rec.off+int64(at)%rec.n:rec.off+rec.n], patch)
		if err := os.WriteFile(l.path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var got *ckks.EvalKey
		err := store.Load(&l, []spillRecord{rec}, func(r *spillRecord, entry []byte) (err error) {
			got, err = decodeSpilledKey(r.name, entry, params)
			return err
		})
		if err != nil {
			if len(patch) == 0 {
				t.Fatalf("untouched record %q failed to load: %v", rec.name, err)
			}
			return
		}
		if !bytes.Equal(got.Append(nil), keys[rec.name].Append(nil)) {
			t.Fatalf("record %q loaded a key other than the one saved", rec.name)
		}
	})
}

// TestWriteKeyBundleAllocCeiling: writing a bundle into a buffer grown to
// its length costs that buffer and nothing more — the image is appended in
// place, not built aside and copied in.
func TestWriteKeyBundleAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is perturbed by the race detector")
	}
	testEnv(t)
	size := bundleSize(t, env.keys)
	write := func() {
		var buf bytes.Buffer
		buf.Grow(int(size))
		if err := WriteKeyBundle(&buf, env.keys); err != nil || int64(buf.Len()) != size {
			t.Fatalf("wrote %d of %d bytes: %v", buf.Len(), size, err)
		}
	}
	if ratio := allocBytes(4, write) / float64(size); ratio > 1.1 {
		t.Fatalf("WriteKeyBundle allocated %.2fx the bundle's %d bytes, ceiling 1.1x", ratio, size)
	}
}

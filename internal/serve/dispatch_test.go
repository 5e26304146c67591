package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cinnamon/internal/ckks"
)

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSameTenantRequestsRunConcurrently: requests of one program and one
// tenant spread over the worker slots instead of serialising behind each
// other — four 50 ms executions on four slots take about one execution's
// wall time, not four.
func TestSameTenantRequestsRunConcurrently(t *testing.T) {
	reg := testEnv(t)
	const exec = 50 * time.Millisecond
	core := NewCore(reg, Config{Workers: 4, testPreRun: func() { time.Sleep(exec) }})
	defer core.Close(context.Background())
	ct, _ := encryptRandom(t, 200)
	// One untimed request warms the plan caches.
	if _, err := core.Submit(context.Background(), "square", testTenant, ct); err != nil {
		t.Fatal(err)
	}
	one := time.Now()
	if _, err := core.Submit(context.Background(), "square", testTenant, ct); err != nil {
		t.Fatal(err)
	}
	single := time.Since(one)

	var wg sync.WaitGroup
	errs := make([]error, 4)
	start := time.Now()
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = core.Submit(context.Background(), "square", testTenant, ct)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if wall >= 2*single {
		t.Fatalf("4 same-tenant requests on 4 slots took %v, want < 2x one execution (%v)", wall, single)
	}
}

// TestDispatchGoroutinesBounded: serving a tenant leaves no goroutine
// behind — after one request from each of 32 tenants the process runs what
// it ran before.
func TestDispatchGoroutinesBounded(t *testing.T) {
	reg := testEnv(t)
	// The extra tenants share the fixture's key pointers, so they cost the
	// shared registry 32 map entries.
	const tenants = 32
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("bounded-%d", i)
		if err := reg.RegisterTenant(names[i], env.keys); err != nil {
			t.Fatal(err)
		}
	}
	core := NewCore(reg, Config{})
	defer core.Close(context.Background())
	ct, _ := encryptRandom(t, 210)
	if _, err := core.Submit(context.Background(), "square", testTenant, ct); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, name := range names {
		if _, err := core.Submit(context.Background(), "square", name, ct); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// Slack for runtime-owned goroutines (timers, GC workers) only.
	if after := runtime.NumGoroutine(); after > before+4 {
		t.Fatalf("goroutines grew %d -> %d over %d tenants", before, after, tenants)
	}
}

// TestShutdownDrainsInFlight: requests parked behind a held worker slot
// when Close begins must all complete — nothing is abandoned — while new
// submissions are refused, and Close must not time out.
func TestShutdownDrainsInFlight(t *testing.T) {
	reg := testEnv(t)
	hold := make(chan struct{})
	core := NewCore(reg, Config{Workers: 1, RequestTimeout: time.Hour, testPreRun: func() { <-hold }})
	const n = 5
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		ct, _ := encryptRandom(t, int64(400+i))
		wg.Add(1)
		go func(i int, ct *ckks.Ciphertext) {
			defer wg.Done()
			_, errs[i] = core.Submit(context.Background(), "rotsum", testTenant, ct)
		}(i, ct)
	}
	// One request holds the slot; the rest wait for it.
	waitFor(t, "requests to park behind the held slot", func() bool {
		return core.Metrics().QueueDepth.Load() == n-1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	closed := make(chan error, 1)
	go func() { closed <- core.Close(ctx) }()
	waitFor(t, "Close to start draining", func() bool { return core.Health().Draining })
	ct, _ := encryptRandom(t, 499)
	if _, err := core.Submit(context.Background(), "rotsum", testTenant, ct); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit while draining: %v", err)
	}
	close(hold)
	if err := <-closed; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d lost in shutdown: %v", i, err)
		}
	}
	if snap := core.Metrics().Snapshot(); snap.Completed != n {
		t.Fatalf("completed %d of %d", snap.Completed, n)
	}
}

// TestLoadShedding: with the only worker slot deterministically held and a
// small admission bound, excess requests must be rejected with
// ErrOverloaded rather than queued without bound.
func TestLoadShedding(t *testing.T) {
	reg := testEnv(t)
	hold := make(chan struct{})
	const n, limit = 12, 2
	core := NewCore(reg, Config{Workers: 1, AdmissionLimit: limit, testPreRun: func() { <-hold }})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		ct, _ := encryptRandom(t, int64(500+i))
		wg.Add(1)
		go func(i int, ct *ckks.Ciphertext) {
			defer wg.Done()
			_, errs[i] = core.Submit(context.Background(), "square", testTenant, ct)
		}(i, ct)
	}
	waitFor(t, "the excess to be shed", func() bool {
		return core.Metrics().Rejected.Load() == n-limit
	})
	close(hold)
	wg.Wait()
	var shed, completed int
	for _, err := range errs {
		switch {
		case errors.Is(err, ErrOverloaded):
			shed++
		case err == nil:
			completed++
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	if shed != n-limit || completed != limit {
		t.Fatalf("shed %d, completed %d; want %d and %d", shed, completed, n-limit, limit)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := core.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRequestTimeout: a request whose own deadline passes — waiting for a
// held worker slot, or in the middle of a deep run that takes no slot —
// returns the deadline error and counts once in Timeouts, never in Errors.
func TestRequestTimeout(t *testing.T) {
	check := func(t *testing.T, core *Core, err error) {
		t.Helper()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want deadline exceeded, got %v", err)
		}
		if snap := core.Metrics().Snapshot(); snap.Timeouts != 1 || snap.Errors != 0 {
			t.Fatalf("timeouts/errors = %d/%d, want 1/0", snap.Timeouts, snap.Errors)
		}
	}
	t.Run("slot wait", func(t *testing.T) {
		reg := testEnv(t)
		hold := make(chan struct{})
		core := NewCore(reg, Config{Workers: 1, testPreRun: func() { <-hold }})
		ct, _ := encryptRandom(t, 600)
		holder := make(chan error, 1)
		go func() {
			_, err := core.Submit(context.Background(), "square", testTenant, ct)
			holder <- err
		}()
		waitFor(t, "the slot to be taken", func() bool { return core.Metrics().OneShots.Load() == 1 })
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, err := core.Submit(ctx, "square", testTenant, ct)
		check(t, core, err)
		close(hold)
		if err := <-holder; err != nil {
			t.Fatalf("slot holder: %v", err)
		}
		core.Close(context.Background())
	})
	t.Run("deep mid-run", func(t *testing.T) {
		de := newDeepEnv(t, 7)
		core := NewCore(de.reg, Config{BootstrapWait: time.Millisecond})
		defer core.Close(context.Background())
		ct, _ := de.encryptInput(t, 601)
		// A deep run costs one bootstrap (>= 100 ms at this ring).
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		_, err := core.Submit(ctx, de.prog.Spec.Name, de.tenant, ct)
		check(t, core, err)
	})
}

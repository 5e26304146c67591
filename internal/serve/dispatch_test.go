package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
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
// held worker slot, or in the middle of a deep run — returns the deadline
// error and counts once in Timeouts, never in Errors.
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
		// The run's refresh outlasts the deadline whatever the kernels'
		// speed: a bootstrap at this ring alone can finish inside it.
		core := NewCore(de.reg, Config{testInRefresh: func(string) func() {
			time.Sleep(60 * time.Millisecond)
			return func() {}
		}})
		defer core.Close(context.Background())
		ct, _ := de.encryptInput(t, 601)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		_, err := core.Submit(ctx, de.prog.Spec.Name, de.tenant, ct)
		check(t, core, err)
	})
}

// refreshProbe is a Config.testInRefresh lever: it sees every refresh from
// just before its bootstrap until it ends, so it knows whose refreshes are
// in flight and can park one there.
type refreshProbe struct {
	mu      sync.Mutex
	order   []string // tenant of every refresh, in the order they began
	active  int      // refreshes begun and not yet ended
	overlap bool     // two were in there at once

	parked  string        // tenant whose next refresh waits on hold
	entered chan struct{} // closed when it arrives
	hold    chan struct{}
}

func (p *refreshProbe) inRefresh(tenant string) (done func()) {
	p.mu.Lock()
	p.order = append(p.order, tenant)
	if p.active > 0 {
		p.overlap = true
	}
	p.active++
	var hold chan struct{}
	if p.parked == tenant {
		p.parked, hold = "", p.hold
		close(p.entered)
	}
	p.mu.Unlock()
	if hold != nil {
		<-hold
	}
	return func() {
		p.mu.Lock()
		p.active--
		p.mu.Unlock()
	}
}

// park makes tenant's next refresh stop inside refresh, before its
// bootstrap, until release is called.
func (p *refreshProbe) park(tenant string) (entered <-chan struct{}, release func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.parked, p.entered, p.hold = tenant, make(chan struct{}), make(chan struct{})
	return p.entered, func() { close(p.hold) }
}

// calls reports how many refreshes of tenant have begun.
func (p *refreshProbe) calls(tenant string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, who := range p.order {
		if who == tenant {
			n++
		}
	}
	return n
}

// TestRefreshesRunSideBySide: nothing serialises refreshes against each
// other. With tenant A parked inside its refresh, tenant B's deep step
// starts, refreshes and completes; both steps return limb for limb what the
// same steps return run alone on a one-slot core. A step whose context is
// cancelled before its refresh runs no bootstrap and counts once in Timeouts.
func TestRefreshesRunSideBySide(t *testing.T) {
	de := newDeepEnv(t, 7)
	const other = "deep-tenant-2"
	// A second tenant over the same key pointers: its requests still run on
	// evaluators of their own.
	if err := de.reg.RegisterTenant(other, de.keys); err != nil {
		t.Fatal(err)
	}
	tenants := []string{de.tenant, other}
	cts := make([]*ckks.Ciphertext, 2)
	cts[0], _ = de.encryptInput(t, 700)
	cts[1], _ = de.encryptInput(t, 701)
	sessions := func(core *Core) []string {
		ids := make([]string, 2)
		for i, tenant := range tenants {
			info, err := core.CreateSession(tenant, de.prog.Spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = info.ID
		}
		return ids
	}

	alone := NewCore(de.reg, Config{Workers: 1, RequestTimeout: time.Hour})
	defer closeCoreT(t, alone)
	want := make([]*ckks.Ciphertext, 2)
	for i, id := range sessions(alone) {
		var err error
		if want[i], _, err = alone.SessionStep(context.Background(), id, cts[i]); err != nil {
			t.Fatalf("step of %s alone: %v", tenants[i], err)
		}
	}

	probe := &refreshProbe{}
	// gate, while set, stops the next execution at its top, inside its slot.
	type preRunGate struct{ arrived, release chan struct{} }
	var gate atomic.Pointer[preRunGate]
	core := NewCore(de.reg, Config{
		Workers:        4,
		RequestTimeout: time.Hour,
		testInRefresh:  probe.inRefresh,
		testPreRun: func() {
			if g := gate.Swap(nil); g != nil {
				close(g.arrived)
				<-g.release
			}
		},
	})
	defer closeCoreT(t, core)
	ids := sessions(core)

	// A's step stops inside its first refresh; B's whole step runs past it.
	entered, release := probe.park(de.tenant)
	type stepResult struct {
		out *ckks.Ciphertext
		err error
	}
	parked := make(chan stepResult, 1)
	go func() {
		out, _, err := core.SessionStep(context.Background(), ids[0], cts[0])
		parked <- stepResult{out, err}
	}()
	<-entered
	// A minute is a regression's hang turned into a failure, not a pace.
	ctxB, cancelB := context.WithTimeout(context.Background(), time.Minute)
	defer cancelB()
	gotB, _, err := core.SessionStep(ctxB, ids[1], cts[1])
	if err != nil {
		t.Fatalf("step of %s beside a parked refresh: %v", other, err)
	}
	perStep := de.prog.BootstrapsRequired
	probe.mu.Lock()
	active, overlap := probe.active, probe.overlap
	probe.mu.Unlock()
	if active != 1 || !overlap || probe.calls(other) != perStep {
		t.Fatalf("with %s parked: %d refreshes in flight, overlap %v, %s refreshed %d times (want 1, true, %d)",
			de.tenant, active, overlap, other, probe.calls(other), perStep)
	}
	if got := core.Metrics().Bootstraps.Load(); got != int64(perStep) {
		t.Fatalf("bootstraps = %d with %s still parked, want %d", got, de.tenant, perStep)
	}
	release()
	resA := <-parked
	if resA.err != nil {
		t.Fatalf("parked step of %s: %v", de.tenant, resA.err)
	}
	sameCiphertext(t, "step parked in its refresh vs alone", resA.out, want[0])
	sameCiphertext(t, "step run beside a parked refresh vs alone", gotB, want[1])

	// B's next step is cancelled at the top of its execution: the run ends at
	// its next context check, ahead of the refresh the step would need.
	before := core.Metrics().Snapshot()
	ranBefore := probe.calls(other)
	g := &preRunGate{arrived: make(chan struct{}), release: make(chan struct{})}
	gate.Store(g)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan error, 1)
	go func() {
		_, _, err := core.SessionStep(ctx, ids[1], nil)
		cancelled <- err
	}()
	<-g.arrived
	cancel()
	close(g.release)
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("step cancelled before its refresh: %v, want context.Canceled", err)
	}
	after := core.Metrics().Snapshot()
	if after.Timeouts != before.Timeouts+1 || after.Errors != before.Errors {
		t.Fatalf("timeouts/errors moved %d/%d, want 1/0", after.Timeouts-before.Timeouts, after.Errors-before.Errors)
	}
	if ran := probe.calls(other) - ranBefore; ran != 0 || after.Bootstraps != before.Bootstraps {
		t.Fatalf("cancelled step ran bootstrap work: %d refreshes began, %d bootstraps", ran, after.Bootstraps-before.Bootstraps)
	}
}

// TestDeepRunsTakeWorkerSlots: programs that bootstrap and session steps
// hold a worker slot like every other execution. With the only slot held, a
// second deep one-shot and a session step wait for it, visible in
// QueueDepth, and a cancelled one fails there without having run.
func TestDeepRunsTakeWorkerSlots(t *testing.T) {
	de := newDeepEnv(t, 7)
	running := make(chan struct{}, 1)
	hold := make(chan struct{})
	core := NewCore(de.reg, Config{Workers: 1, RequestTimeout: time.Hour, testPreRun: func() {
		running <- struct{}{}
		<-hold
	}})
	defer core.Close(context.Background())
	ct, _ := de.encryptInput(t, 710)
	info, err := core.CreateSession(de.tenant, de.prog.Spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	holder := make(chan error, 1)
	go func() {
		_, err := core.Submit(context.Background(), de.prog.Spec.Name, de.tenant, ct)
		holder <- err
	}()
	<-running
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiters := make(chan error, 2)
	go func() {
		_, err := core.Submit(ctx, de.prog.Spec.Name, de.tenant, ct)
		waiters <- err
	}()
	go func() {
		_, _, err := core.SessionStep(ctx, info.ID, ct)
		waiters <- err
	}()
	waitFor(t, "the deep one-shot and the session step to queue for the slot", func() bool {
		return core.Metrics().QueueDepth.Load() == 2
	})
	cancel()
	for i := 0; i < 2; i++ {
		if err := <-waiters; !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter %d: %v, want context.Canceled", i, err)
		}
	}
	close(hold)
	if err := <-holder; err != nil {
		t.Fatalf("slot holder: %v", err)
	}
	snap := core.Metrics().Snapshot()
	if snap.Timeouts != 2 || snap.Errors != 0 || snap.QueueDepth != 0 {
		t.Fatalf("timeouts/errors/queue_depth = %d/%d/%d, want 2/0/0", snap.Timeouts, snap.Errors, snap.QueueDepth)
	}
	// Only the slot holder ever executed.
	if want := int64(de.prog.BootstrapsRequired); snap.Bootstraps != want || snap.Completed != 1 {
		t.Fatalf("bootstraps/completed = %d/%d, want %d/1", snap.Bootstraps, snap.Completed, want)
	}
}

// TestCloseDrainsInFlightRefresh: Close called while a deep session step is
// inside its refresh returns only once that step has completed and its
// checkpoint is in the log — a restart resumes from it.
func TestCloseDrainsInFlightRefresh(t *testing.T) {
	de := newDeepEnv(t, 7)
	logPath := filepath.Join(t.TempDir(), "sessions.log")
	probe := &refreshProbe{}
	core, err := NewDurableCore(de.reg, Config{SessionLog: logPath, RequestTimeout: time.Hour, testInRefresh: probe.inRefresh})
	if err != nil {
		t.Fatal(err)
	}
	info, err := core.CreateSession(de.tenant, de.prog.Spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := de.encryptInput(t, 720)
	entered, release := probe.park(de.tenant)
	type stepResult struct {
		out *ckks.Ciphertext
		err error
	}
	step := make(chan stepResult, 1)
	go func() {
		out, _, err := core.SessionStep(context.Background(), info.ID, ct)
		step <- stepResult{out, err}
	}()
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- core.Close(context.Background()) }()
	waitFor(t, "Close to start draining", func() bool { return core.Health().Draining })
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a refresh in flight", err)
	default:
	}
	release()
	if err := <-closed; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// SessionSteps moves after the checkpoint append, before the step leaves
	// the core: Close cannot have returned ahead of it.
	if n := core.Metrics().SessionSteps.Load(); n != 1 {
		t.Fatalf("Close returned with %d completed steps, want 1", n)
	}
	res := <-step
	if res.err != nil {
		t.Fatalf("step drained by Close: %v", res.err)
	}
	restarted, err := NewDurableCore(de.reg, Config{SessionLog: logPath})
	if err != nil {
		t.Fatal(err)
	}
	defer closeCoreT(t, restarted)
	sess, ok := restarted.sessions.get(info.ID)
	if !ok || sess.steps != 1 {
		t.Fatalf("restart did not restore the drained step (found %v)", ok)
	}
	if !sess.state.C0.Equal(res.out.C0) || !sess.state.C1.Equal(res.out.C1) {
		t.Fatal("restored state differs from the step's response")
	}
}

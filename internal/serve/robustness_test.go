package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cinnamon/internal/cluster"
)

// TestOverloadShedsKeepsAdmittedLatencyFlat is the overload invariant:
// when offered load exceeds capacity, the core sheds with typed
// ErrOverloaded (429 at the HTTP layer) while the requests it does admit
// keep a p50 within 2× the unloaded baseline — bounded admission means
// overload shows up as fast rejections, not as a latency collapse for
// everyone.
func TestOverloadShedsKeepsAdmittedLatencyFlat(t *testing.T) {
	reg := testEnv(t)
	const exec = 50 * time.Millisecond
	core := NewCore(reg, Config{
		Workers:        1,
		AdmissionLimit: 1, // one request inside the core; the rest shed
		RequestTimeout: 5 * time.Second,
		testPreRun:     func() { time.Sleep(exec) }, // deterministic slow backend
	})
	defer core.Close(context.Background())
	ct, _ := encryptRandom(t, 1)

	// Unloaded baseline: sequential requests, no contention.
	var base []time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := core.Submit(context.Background(), "square", testTenant, ct); err != nil {
			t.Fatalf("baseline request: %v", err)
		}
		base = append(base, time.Since(start))
	}
	p50Base := median(base)

	// Overload: 6 closed-loop clients against single-request capacity.
	var (
		mu       sync.Mutex
		admitted []time.Duration
		shed     atomic.Int64
	)
	deadline := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				start := time.Now()
				_, err := core.Submit(context.Background(), "square", testTenant, ct)
				switch {
				case err == nil:
					mu.Lock()
					admitted = append(admitted, time.Since(start))
					mu.Unlock()
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
					time.Sleep(time.Millisecond) // shed is instant; don't spin
				default:
					t.Errorf("unexpected submit error under overload: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if shed.Load() == 0 {
		t.Fatal("no requests were shed at 6x overload")
	}
	if len(admitted) < 10 {
		t.Fatalf("only %d requests admitted during overload window", len(admitted))
	}
	p50Loaded := median(admitted)
	if p50Loaded > 2*p50Base {
		t.Errorf("admitted p50 under overload = %v, want <= 2x unloaded baseline %v", p50Loaded, p50Base)
	}
	t.Logf("baseline p50 %v, overloaded p50 %v (%d admitted, %d shed)",
		p50Base, p50Loaded, len(admitted), shed.Load())
	if got := core.Metrics().Snapshot().Rejected; got != shed.Load() {
		t.Errorf("Rejected metric = %d, want %d", got, shed.Load())
	}
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// TestPanicRecoveryIsolatesRequest: a panic during execution fails only
// that request — typed with ErrInternal, counted in Panics — and the core
// keeps serving.
func TestPanicRecoveryIsolatesRequest(t *testing.T) {
	reg := testEnv(t)
	var bomb atomic.Bool
	bomb.Store(true)
	core := NewCore(reg, Config{
		Workers: 1,
		testPreRun: func() {
			if bomb.CompareAndSwap(true, false) {
				panic("injected execution panic")
			}
		},
	})
	defer core.Close(context.Background())
	ct, in := encryptRandom(t, 2)

	_, err := core.Submit(context.Background(), "square", testTenant, ct)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("poisoned request error = %v, want ErrInternal", err)
	}
	if got := core.Metrics().Panics.Load(); got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
	// The slot was released: the next request is served normally.
	out, err := core.Submit(context.Background(), "square", testTenant, ct)
	if err != nil || out == nil {
		t.Fatalf("request after recovered panic: %v", err)
	}
	if e, tol := plainErr(t, "square", in, out); e > tol {
		t.Fatalf("post-panic result slot error %g", e)
	}
}

// TestHealthzClusterDown: with a cluster backend, all workers down and
// fallback off, /healthz turns 503 with a JSON body whose backend row reports
// workers_healthy and circuit_state — the load-balancer signal that this
// replica cannot currently serve.
func TestHealthzClusterDown(t *testing.T) {
	reg := testEnv(t)
	w := cluster.NewWorker(reg.Params)
	dialer := cluster.NewPipeDialer(w)
	eng, err := cluster.NewEngine(reg.Params, []cluster.Dialer{dialer}, cluster.Options{
		RPCTimeout:        200 * time.Millisecond,
		DialTimeout:       200 * time.Millisecond,
		RetryBackoff:      5 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer eng.Close()
	core := NewCore(reg, Config{Backends: []BackendSpec{{Engine: eng}}, RequireCluster: true})
	defer core.Close(context.Background())
	handler := NewHandler(core, HandlerConfig{})

	get := func() (int, Health) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var h Health
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatalf("healthz body %q: %v", rec.Body.String(), err)
		}
		if len(h.Backends) != 1 {
			t.Fatalf("healthz body %q: want one backend row", rec.Body.String())
		}
		return rec.Code, h
	}

	if code, h := get(); code != http.StatusOK || !h.OK || h.Backends[0].Healthy != 1 {
		t.Fatalf("healthy cluster: code %d, health %+v", code, h)
	}

	// Kill the only worker and wait for the heartbeat to notice.
	dialer.Kill()
	deadline := time.Now().Add(2 * time.Second)
	for eng.HealthyWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("engine never marked the killed worker unhealthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, h := get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with cluster down = %d, want 503", code)
	}
	if h.OK || h.Backends[0].Healthy != 0 || !h.Cluster {
		t.Fatalf("health body %+v, want ok=false workers_healthy=0", h)
	}
	if h.Backends[0].Circuit == "" {
		t.Fatal("health body missing circuit_state")
	}

	// Revive: the heartbeat redials and /healthz recovers.
	dialer.Revive()
	deadline = time.Now().Add(2 * time.Second)
	for {
		if code, h := get(); code == http.StatusOK && h.OK && h.Backends[0].Healthy == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never recovered after worker revival")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

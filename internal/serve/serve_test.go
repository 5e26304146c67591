package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cinnamon/internal/ckks"
)

// TestServeMatchesReference runs every catalog program through the full
// serving path and checks the decrypted response against the program's
// plaintext model at its advertised tolerance.
func TestServeMatchesReference(t *testing.T) {
	reg := testEnv(t)
	core := NewCore(reg, Config{})
	defer core.Close(context.Background())
	for i, name := range reg.ProgramNames() {
		ct, in := encryptRandom(t, int64(1000+i))
		out, err := core.Submit(context.Background(), name, testTenant, ct)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e, tol := plainErr(t, name, in, out); e > tol {
			t.Fatalf("%s: served result deviates from EvalPlain by %g (tolerance %g)", name, e, tol)
		}
	}
}

// TestConcurrentClientsRace hammers one core from many goroutines across
// all programs — the -race concurrency test of the serving pipeline —
// and verifies every response decrypts to the plaintext model's result.
func TestConcurrentClientsRace(t *testing.T) {
	reg := testEnv(t)
	core := NewCore(reg, Config{RequestTimeout: 2 * time.Minute})
	defer core.Close(context.Background())
	names := reg.ProgramNames()
	const clients = 8
	const perClient = 4
	var wg sync.WaitGroup
	errCh := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				name := names[(c+i)%len(names)]
				ct, in := encryptRandom(t, int64(2000+c*100+i))
				out, err := core.Submit(context.Background(), name, testTenant, ct)
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", name, err)
					continue
				}
				if e, tol := plainErr(t, name, in, out); e > tol {
					errCh <- fmt.Errorf("%s: error %g (tolerance %g)", name, e, tol)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	snap := core.Metrics().Snapshot()
	if snap.Completed != clients*perClient {
		t.Fatalf("completed %d of %d", snap.Completed, clients*perClient)
	}
	if snap.Latency.Count != clients*perClient || snap.Latency.P50Ms <= 0 {
		t.Fatalf("latency summary incomplete: %+v", snap.Latency)
	}
}

// TestHTTPEndToEnd exercises the wire protocol: params discovery, key
// registration, encrypted run requests, and the metrics endpoint.
func TestHTTPEndToEnd(t *testing.T) {
	reg := testEnv(t)
	core := NewCore(reg, Config{})
	defer core.Close(context.Background())
	srv := httptest.NewServer(NewHandler(core, HandlerConfig{}))
	defer srv.Close()

	// Health.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp.Status)
	}
	resp.Body.Close()

	// Key registration over the wire.
	var bundle bytes.Buffer
	if err := WriteKeyBundle(&bundle, env.keys); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/tenants/http-tenant/keys", "application/octet-stream", &bundle)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("key registration: %v", resp.Status)
	}

	// Garbage key bundles are rejected.
	resp, err = http.Post(srv.URL+"/v1/tenants/evil/keys", "application/octet-stream", bytes.NewReader([]byte("not a bundle")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage bundle: %v", resp.Status)
	}

	// Run a request and check it against the plaintext model.
	ct, in := encryptRandom(t, 3000)
	var body bytes.Buffer
	if err := ct.Write(&body); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", srv.URL+"/v1/programs/square:run", &body)
	req.Header.Set("X-Cinnamon-Tenant", "http-tenant")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("run: %v: %s", resp.Status, msg)
	}
	out, err := ckks.ReadCiphertext(resp.Body, reg.Params)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if e, tol := plainErr(t, "square", in, out); e > tol {
		t.Fatalf("served result deviates from EvalPlain by %g (tolerance %g)", e, tol)
	}

	// Garbage ciphertexts are rejected, not crashed on.
	req, _ = http.NewRequest("POST", srv.URL+"/v1/programs/square:run", bytes.NewReader([]byte{1, 2, 3}))
	req.Header.Set("X-Cinnamon-Tenant", "http-tenant")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage ciphertext: %v", resp.Status)
	}

	// Unknown tenant is forbidden.
	var body2 bytes.Buffer
	ct.Write(&body2)
	req, _ = http.NewRequest("POST", srv.URL+"/v1/programs/square:run", &body2)
	req.Header.Set("X-Cinnamon-Tenant", "ghost")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("ghost tenant: %v", resp.Status)
	}

	// Metrics reflect the traffic.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"completed"`, `"queue_depth"`, `"p99_ms"`, `"square"`} {
		if !bytes.Contains(metricsBody, []byte(want)) {
			t.Fatalf("metrics JSON missing %s: %s", want, metricsBody)
		}
	}

	// Params round-trip: a client can rebuild an identical parameter set.
	resp, err = http.Get(srv.URL + "/v1/params")
	if err != nil {
		t.Fatal(err)
	}
	paramsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lit, err := decodeParamsJSON(paramsBody)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := ckks.NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt.QBasis.Equal(reg.Params.QBasis) {
		t.Fatal("rebuilt parameters diverge from the server's")
	}
}

func decodeParamsJSON(b []byte) (ckks.ParametersLiteral, error) {
	var lit ckks.ParametersLiteral
	err := json.Unmarshal(b, &lit)
	return lit, err
}

// BenchmarkServeParallelSubmit measures end-to-end serve throughput
// (requests/sec through registry → admission → worker slots) under
// concurrent callers.
func BenchmarkServeParallelSubmit(b *testing.B) {
	reg := testEnv(b)
	core := NewCore(reg, Config{RequestTimeout: time.Minute})
	defer core.Close(context.Background())
	ct, _ := encryptRandom(b, 5000)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := core.Submit(context.Background(), "square", testTenant, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

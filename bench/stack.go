package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cinnamon/internal/bootstrap"
	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/serve"
	"cinnamon/internal/workloads"
)

// nClients is the closed-loop client count: nproc on the reference host.
// The harness never opens more connections or load goroutines than this.
const nClients = 2

// stackConfig is what a workload asks set-up to build.
type stackConfig struct {
	logN, levels int
	bootstrap    bool
	programs     []workloads.ServeWorkload // the registry's catalog
	inputs       []string                  // programs to pre-encrypt request inputs for
	poolSize     int                       // inputs per (tenant, program)
	inputLevel   map[string]int            // program → level its inputs are encrypted at; default the chain's top
	tenants      int
	workers      int     // cluster workers behind loopback TCP; 0 = local path
	budget       float64 // key budget in tenant bundles; 0 = unbounded
	sessionLog   bool
}

// input is one pre-encrypted request: the server only ever sees body.
type input struct {
	vec  []complex128
	ct   *ckks.Ciphertext
	body []byte
}

// tenant is one caller's key material and request pool.
type tenant struct {
	id     string
	keys   map[string]*ckks.EvalKey
	bundle []byte
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
	ev     *ckks.Evaluator
	inputs map[string][]input
}

// localWorker is an in-process cluster.Worker behind a loopback listener,
// standing in for a cinnamon-worker process.
type localWorker struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func startWorker(params *ckks.Parameters) (*localWorker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lw := &localWorker{ln: ln}
	w := cluster.NewWorker(params)
	lw.wg.Add(1)
	go func() {
		defer lw.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed by stop
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.SetNoDelay(true) // as cmd/cinnamon-worker does; a refusal only costs latency
			}
			lw.mu.Lock()
			lw.conns = append(lw.conns, conn)
			lw.mu.Unlock()
			lw.wg.Add(1)
			go func() {
				defer lw.wg.Done()
				defer conn.Close()
				_ = w.Serve(conn) // ends when stop closes the connection
			}()
		}
	}()
	return lw, nil
}

func (lw *localWorker) stop() {
	lw.ln.Close()
	lw.mu.Lock()
	for _, c := range lw.conns {
		c.Close()
	}
	lw.mu.Unlock()
	lw.wg.Wait()
}

// stack is the real serving stack booted in-process: registry, durable
// core, HTTP handler on a loopback listener, and cluster workers where the
// workload has them.
type stack struct {
	cfg     stackConfig
	dir     string // spill dir and session log live here; removed by close
	params  *ckks.Parameters
	reg     *serve.Registry
	core    *serve.Core
	engine  *cluster.Engine
	workers []*localWorker
	srv     *http.Server
	srvDone chan struct{}
	base    string
	tenants []*tenant
	logPath string
	budget  int64

	stages map[string]float64 // set-up stage → seconds
	total  float64
}

// close tears the stack down and waits for everything it started.
func (st *stack) close() {
	if st.srv != nil {
		st.srv.Close()
		<-st.srvDone
	}
	if st.core != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = st.core.Close(ctx) // a drain timeout leaves nothing to do but exit
		cancel()
	}
	if st.engine != nil {
		st.engine.Close()
	}
	for _, w := range st.workers {
		w.stop()
	}
	os.RemoveAll(st.dir)
}

// setUp builds the stack and drives warm-up through it, timing each stage.
// Everything a caller pays before its first timed request is in here.
func setUp(cfg stackConfig, seed int64, tmpRoot string, warm func(*stack) error) (*stack, error) {
	start := time.Now()
	st := &stack{cfg: cfg, stages: map[string]float64{}}
	built := false
	defer func() {
		if !built {
			st.close()
		}
	}()
	var err error
	if st.dir, err = os.MkdirTemp(tmpRoot, "stack-"); err != nil {
		return nil, err
	}
	mark := start
	stage := func(name string) {
		now := time.Now()
		st.stages[name] += now.Sub(mark).Seconds()
		mark = now
	}

	lit := workloads.ServeParamsLiteral(cfg.logN, cfg.levels, seed)
	regCfg := serve.RegistryConfig{Literal: lit, Programs: cfg.programs, MaxBatch: nClients}
	if cfg.bootstrap {
		regCfg.Literal = workloads.ServeBootstrapParamsLiteral(cfg.logN, cfg.levels, seed)
		bc := bootstrap.DefaultConfig()
		regCfg.Bootstrap = &bc
	}
	if st.reg, err = serve.NewRegistry(regCfg); err != nil {
		return nil, err
	}
	if cfg.budget > 0 {
		// The budget is counted in bundles, and a bundle's size is known
		// only once a registry has said which keys its programs need: size a
		// throwaway tenant's bundle, then compile again under the budget.
		probe, err := newTenant(st.reg, ckks.NewKeyGenerator(st.reg.Params), 0)
		if err != nil {
			return nil, err
		}
		st.budget = int64(cfg.budget * float64(len(probe.bundle)))
		regCfg.KeyBudgetBytes = st.budget
		regCfg.KeySpillDir = filepath.Join(st.dir, "spill")
		if st.reg, err = serve.NewRegistry(regCfg); err != nil {
			return nil, err
		}
	}
	st.params = st.reg.Params
	kg := ckks.NewKeyGenerator(st.params)
	stage("setup.registry_compile_s")

	coreCfg := serve.Config{}
	if cfg.workers > 0 {
		var dialers []cluster.Dialer
		for i := 0; i < cfg.workers; i++ {
			w, err := startWorker(st.params)
			if err != nil {
				return nil, err
			}
			st.workers = append(st.workers, w)
			dialers = append(dialers, cluster.TCPDialer{Addr: w.ln.Addr().String()})
		}
		if st.engine, err = cluster.NewEngine(st.params, dialers, cluster.Options{}); err != nil {
			return nil, err
		}
		coreCfg.Backends = []serve.BackendSpec{{Name: "bench", Engine: st.engine}}
		coreCfg.RequireCluster = true
		stage("setup.cluster_dial_s")
	}
	if cfg.sessionLog {
		st.logPath = filepath.Join(st.dir, "sessions.log")
		coreCfg.SessionLog = st.logPath
	}
	if st.core, err = serve.NewDurableCore(st.reg, coreCfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: serve.NewHandler(st.core, serve.HandlerConfig{})}
	st.srvDone = make(chan struct{})
	go func() {
		defer close(st.srvDone)
		_ = st.srv.Serve(ln) // returns ErrServerClosed from close
	}()
	stage("setup.boot_s")

	for len(st.tenants) < cfg.tenants {
		t, err := newTenant(st.reg, kg, len(st.tenants))
		if err != nil {
			return nil, err
		}
		st.tenants = append(st.tenants, t)
	}
	stage("setup.keygen_s")

	hc := newHTTPClient()
	for _, t := range st.tenants {
		status, _, err := hc.post(st.base+"/v1/tenants/"+t.id+"/keys", "", t.bundle)
		if err != nil || status != http.StatusNoContent {
			return nil, fmt.Errorf("registering %s: status %d: %v", t.id, status, err)
		}
	}
	hc.close()
	stage("setup.register_s")

	rng := rand.New(rand.NewSource(seed))
	for _, t := range st.tenants {
		if err := t.encryptPool(st, rng); err != nil {
			return nil, err
		}
	}
	stage("setup.encrypt_s")

	if err := warm(st); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	stage("setup.warmup_s")
	st.total = time.Since(start).Seconds()
	built = true
	return st, nil
}

// newTenant generates one tenant's keys: exactly the union of what the
// registry's programs advertise, as a client reading /v1/programs would.
// One generator serves every tenant, so their secrets are independent draws
// from the seeded stream.
func newTenant(reg *serve.Registry, kg *ckks.KeyGenerator, i int) (*tenant, error) {
	rotSet, conj := map[int]bool{}, false
	for _, name := range reg.ProgramNames() {
		p, _ := reg.Program(name)
		for _, id := range p.RequiredKeys {
			if id == "conj" {
				conj = true
			} else if off, ok := rotationOffset(id); ok {
				rotSet[off] = true
			}
		}
	}
	if reg.Pre != nil {
		// Sessions refresh through the tenant's bootstrapper, whatever the
		// program: that needs the bootstrap circuit's keys as well.
		conj = true
		for _, k := range reg.Pre.Rotations() {
			rotSet[k] = true
		}
	}
	rots := make([]int, 0, len(rotSet))
	for k := range rotSet {
		rots = append(rots, k)
	}
	sort.Ints(rots)
	sk, err := kg.GenSecretKey()
	if err != nil {
		return nil, err
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		return nil, err
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		return nil, err
	}
	rtks, err := kg.GenRotationKeySet(sk, rots, conj)
	if err != nil {
		return nil, err
	}
	t := &tenant{
		id:     fmt.Sprintf("t%d", i),
		keys:   map[string]*ckks.EvalKey{"rlk": rlk},
		enc:    ckks.NewEncoder(reg.Params),
		encr:   ckks.NewEncryptor(reg.Params, pk),
		decr:   ckks.NewDecryptor(reg.Params, sk),
		ev:     ckks.NewEvaluator(reg.Params, rlk, rtks),
		inputs: map[string][]input{},
	}
	for k, key := range rtks.Keys {
		t.keys[fmt.Sprintf("rot:%d", k)] = key
	}
	if rtks.Conj != nil {
		t.keys["conj"] = rtks.Conj
	}
	var buf bytes.Buffer
	if err := serve.WriteKeyBundle(&buf, t.keys); err != nil {
		return nil, err
	}
	t.bundle = buf.Bytes()
	return t, nil
}

func (t *tenant) encrypt(params *ckks.Parameters, v []complex128, level int) (*ckks.Ciphertext, error) {
	pt, err := t.enc.Encode(v, level, params.DefaultScale())
	if err != nil {
		return nil, err
	}
	return t.encr.Encrypt(pt)
}

// rotationOffset parses the registry's "rot:<k>" key ids.
func rotationOffset(id string) (int, bool) {
	k, ok := strings.CutPrefix(id, "rot:")
	if !ok {
		return 0, false
	}
	off, err := strconv.Atoi(k)
	return off, err == nil
}

// encryptPool draws and encrypts the tenant's request inputs from rng.
func (t *tenant) encryptPool(st *stack, rng *rand.Rand) error {
	for _, name := range st.cfg.inputs {
		p, ok := st.reg.Program(name)
		if !ok {
			return fmt.Errorf("no program %q in the registry", name)
		}
		level, ok := st.cfg.inputLevel[name]
		if !ok {
			level = st.params.MaxLevel()
		}
		for i := 0; i < st.cfg.poolSize; i++ {
			var v []complex128
			if p.Spec.MakeInput != nil {
				v = p.Spec.MakeInput(rng, st.params.Slots())
			} else {
				v = make([]complex128, st.params.Slots())
				for j := range v {
					v[j] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
				}
			}
			ct, err := t.encrypt(st.params, v, level)
			if err != nil {
				return err
			}
			var body bytes.Buffer
			if err := ct.Write(&body); err != nil {
				return err
			}
			t.inputs[name] = append(t.inputs[name], input{vec: v, ct: ct, body: body.Bytes()})
		}
	}
	return nil
}

// decode decrypts a response into slot values.
func (t *tenant) decode(ct *ckks.Ciphertext, slots int) ([]complex128, error) {
	pt, err := t.decr.Decrypt(ct)
	if err != nil {
		return nil, err
	}
	return t.enc.Decode(pt, slots)
}

// httpClient is one caller's single keep-alive connection.
type httpClient struct {
	c   *http.Client
	buf bytes.Buffer
}

func newHTTPClient() *httpClient {
	return &httpClient{c: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// do sends one request and reads the whole response. The returned body is
// only valid until the next call.
func (h *httpClient) do(method, url, tenant string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if tenant != "" {
		req.Header.Set("X-Cinnamon-Tenant", tenant)
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	h.buf.Reset()
	if _, err := h.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, h.buf.Bytes(), nil
}

func (h *httpClient) post(url, tenant string, body []byte) (int, []byte, error) {
	return h.do(http.MethodPost, url, tenant, body)
}

// createSession opens a session over HTTP and returns its id.
func (h *httpClient) createSession(base, tenant, program string) (string, error) {
	body, _ := json.Marshal(map[string]string{"tenant": tenant, "program": program})
	status, resp, err := h.post(base+"/v1/sessions", "", body)
	var info serve.SessionInfo
	if err == nil && status == http.StatusCreated {
		err = json.Unmarshal(resp, &info)
	}
	if err != nil || status != http.StatusCreated {
		return "", fmt.Errorf("session create: status %d: %v: %s", status, err, firstLine(resp))
	}
	return info.ID, nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"math/cmplx"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/serve"
)

// sample is one latency-sampled request: a one-shot, or a session step.
type sample struct {
	end     time.Duration // completion, since the window opened
	lat     time.Duration
	program int // index into cfg.inputs
	tenant  int
	step    int // step index within its session; -1 for a one-shot
	ok      bool
}

// kept is a response stored for verification after the window.
type kept struct {
	program string
	tenant  int
	input   int // pool index of the request's input
	steps   int // program applications the response is the result of
	body    []byte
}

// keepMax is how many responses a client stores for verification: the
// first to complete in each 1/keepMax slice of the window, so they spread
// over the whole window whatever the request rate.
const keepMax = 12

// client is one closed-loop caller: one connection, one goroutine.
type client struct {
	id        int
	http      *httpClient
	stream    *stream       // the one-shot request stream both clients pull from
	keepSlice time.Duration // window length / keepMax
	attempted int
	failed    int
	errs      []string
	samples   []sample
	kept      []kept
}

// stream is the one request sequence the closed-loop clients share: each
// pulls the next (program, tenant) when its previous request completes, so
// the server sees one order whatever the clients' relative timing — which
// keeps the key cache's hit/miss pattern, and which requests overlap, the
// same from run to run.
type stream struct {
	mu                sync.Mutex
	programs, tenants *deck
	n                 int
}

func newStream(w *workload, seed int64) *stream {
	return &stream{programs: newDeck(w.programs, seed), tenants: newDeck(w.tenants, seed)}
}

// next deals a request: program and tenant index, and the request's number.
func (s *stream) next() (pi, ti, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.programs.next(), s.tenants.next(), s.n - 1
}

func newClient(id int, src *stream) *client {
	return &client{id: id, http: newHTTPClient(), stream: src}
}

// fail counts a failed request of the timed window (warm-up failures abort
// set-up instead) and keeps the first few reasons.
func (c *client) fail(timed bool, format string, a ...any) {
	if timed {
		c.failed++
	}
	if len(c.errs) < 3 {
		c.errs = append(c.errs, fmt.Sprintf(format, a...))
	}
}

// request sends one latency-sampled request and records it. since is the
// window's opening; a zero since means warm-up, which records nothing.
func (c *client) request(since time.Time, url, tenantID string, body []byte, s sample, k kept) bool {
	t0 := time.Now()
	status, resp, err := c.http.post(url, tenantID, body)
	s.lat = time.Since(t0)
	s.ok = err == nil && status == http.StatusOK
	if !s.ok {
		c.fail(!since.IsZero(), "%s: status %d: %v: %s", url, status, err, firstLine(resp))
	}
	if since.IsZero() {
		return s.ok
	}
	c.attempted++
	s.end = time.Since(since)
	c.samples = append(c.samples, s)
	if s.ok && len(c.kept) < keepMax && s.end >= time.Duration(len(c.kept))*c.keepSlice {
		k.body = append([]byte(nil), resp...)
		c.kept = append(c.kept, k)
	}
	return s.ok
}

// oneshot runs program pi of cfg.inputs for tenant ti on its n-th input.
func (c *client) oneshot(st *stack, since time.Time, pi, ti, n int) bool {
	name := st.cfg.inputs[pi]
	t := st.tenants[ti]
	ii := n % len(t.inputs[name])
	return c.request(since, st.base+"/v1/programs/"+name+":run", t.id, t.inputs[name][ii].body,
		sample{program: pi, tenant: ti, step: -1},
		kept{program: name, tenant: ti, input: ii, steps: 1})
}

// session runs create → steps × :step → close for the client's own tenant,
// stopping early (but still closing) once deadline passes.
func (c *client) session(st *stack, program string, since, deadline time.Time, steps, seq int) bool {
	ti := c.id % len(st.tenants)
	t := st.tenants[ti]
	timed := !since.IsZero()
	id, err := c.http.createSession(st.base, t.id, program)
	if timed {
		c.attempted++
	}
	if err != nil {
		c.fail(timed, "%v", err)
		return false
	}
	ii := seq % len(t.inputs[program])
	ok := true
	for j := 0; j < steps && ok && (deadline.IsZero() || time.Now().Before(deadline)); j++ {
		var in []byte
		if j == 0 {
			in = t.inputs[program][ii].body // later steps iterate the held state
		}
		ok = c.request(since, st.base+"/v1/sessions/"+id+":step", "", in,
			sample{tenant: ti, step: j},
			kept{program: program, tenant: ti, input: ii, steps: j + 1})
	}
	status, _, err := c.http.do(http.MethodDelete, st.base+"/v1/sessions/"+id, "", nil)
	if timed {
		c.attempted++
	}
	if err != nil || status != http.StatusNoContent {
		c.fail(timed, "session close: status %d: %v", status, err)
		return false
	}
	return ok
}

// firstLine is an error response's text, for the failure report.
func firstLine(body []byte) string {
	line, _, _ := bytes.Cut(bytes.TrimSpace(body), []byte("\n"))
	if len(line) > 200 {
		line = line[:200]
	}
	return string(line)
}

// warmUp touches every program and tenant the workload uses, from nClients
// concurrent callers, so machine pools, plan caches, lazy worker key pushes
// and the key cache's steady state are reached before timing.
func warmUp(w *workload, seed int64) func(*stack) error {
	return func(st *stack) error {
		var src *stream
		if w.sessions == "" {
			src = newStream(w, seed)
		}
		errs := make(chan error, nClients)
		for id := 0; id < nClients; id++ {
			go func(c *client) { errs <- c.warm(w, st) }(newClient(id, src))
		}
		var first error
		for id := 0; id < nClients; id++ {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
}

func (c *client) warm(w *workload, st *stack) error {
	defer c.http.close()
	if w.sessions != "" {
		if !c.session(st, w.sessions, time.Time{}, time.Time{}, 3, 0) {
			return fmt.Errorf("client %d: session: %v", c.id, c.errs)
		}
		return nil
	}
	// Every (program, tenant) pair once, then some of the mix so the key
	// cache ends on its hot tenants, not on the last one touched.
	for pi := range st.cfg.inputs {
		for ti := range st.tenants {
			if !c.oneshot(st, time.Time{}, pi, ti, 0) {
				return fmt.Errorf("client %d: %v", c.id, c.errs)
			}
		}
	}
	for i := 0; i < 8; i++ {
		pi, ti, n := c.stream.next()
		if !c.oneshot(st, time.Time{}, pi, ti, n) {
			return fmt.Errorf("client %d: %v", c.id, c.errs)
		}
	}
	return nil
}

// window is the timed window's outcome.
type window struct {
	seconds   float64
	samples   []sample // completed inside the window
	attempted int
	failed    int
	errs      []string
	kept      []kept

	before, after       serve.Snapshot
	logBefore, logAfter int64
	memBefore, memAfter runtime.MemStats

	verified   int
	maxSlotErr float64
}

func fileSize(path string) int64 {
	if fi, err := os.Stat(path); err == nil {
		return fi.Size()
	}
	return 0
}

// runWindow drives the stack from nClients closed-loop callers for d and
// differences the server's counters around it.
func runWindow(w *workload, st *stack, seed int64, d time.Duration) *window {
	win := &window{seconds: d.Seconds()}
	var src *stream
	if w.sessions == "" {
		src = newStream(w, seed)
	}
	clients := make([]*client, nClients)
	for id := range clients {
		clients[id] = newClient(id, src)
		clients[id].keepSlice = d / keepMax
	}
	runtime.GC() // start every window from a collected heap
	runtime.ReadMemStats(&win.memBefore)
	win.logBefore = fileSize(st.logPath)
	win.before = st.core.Metrics().Snapshot()
	since := time.Now()
	deadline := since.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				if w.sessions == "" {
					pi, ti, n := src.next()
					c.oneshot(st, since, pi, ti, n)
					continue
				}
				c.session(st, w.sessions, since, deadline, sessionSteps, seq)
			}
		}(c)
	}
	wg.Wait()
	win.after = st.core.Metrics().Snapshot()
	win.logAfter = fileSize(st.logPath)
	runtime.ReadMemStats(&win.memAfter)
	for _, c := range clients {
		c.http.close()
		win.attempted += c.attempted
		win.failed += c.failed
		win.errs = append(win.errs, c.errs...)
		win.kept = append(win.kept, c.kept...)
		for _, s := range c.samples {
			// A request still in flight when the window closed belongs to no
			// window: it is neither throughput nor a latency sample.
			if s.end <= d {
				win.samples = append(win.samples, s)
			}
		}
	}
	return win
}

// latencies returns the ascending millisecond latencies of the OK samples
// keep accepts.
func (w *window) latencies(keep func(sample) bool) []float64 {
	var ds []time.Duration
	for _, s := range w.samples {
		if s.ok && keep(s) {
			ds = append(ds, s.lat)
		}
	}
	return msOf(ds)
}

// verify decrypts every kept response and compares it with the program's
// plaintext reference at the tolerance the program advertises; on the
// cluster workload it also requires the bytes a local-path core returns for
// the same input. Violations count as failed requests.
func (w *window) verify(st *stack) error {
	var local *serve.Core
	if st.engine != nil {
		var err error
		if local, err = serve.NewDurableCore(st.reg, serve.Config{}); err != nil {
			return err
		}
		defer local.Close(context.Background())
	}
	for _, k := range w.kept {
		t := st.tenants[k.tenant]
		in := t.inputs[k.program][k.input]
		prog, _ := st.reg.Program(k.program)
		got, err := ckks.ReadCiphertext(bytes.NewReader(k.body), st.params)
		if err != nil {
			return fmt.Errorf("kept %s response: %w", k.program, err)
		}
		var want []complex128
		if prog.Spec.EvalPlain != nil {
			want = in.vec
			for i := 0; i < k.steps; i++ {
				want = prog.Spec.EvalPlain(want)
			}
		} else {
			// No plaintext model (rotsum): the client's own homomorphic
			// evaluation under its own keys is the reference, as in loadgen.
			ref, err := prog.Spec.Reference(t.ev, t.enc, in.ct)
			if err != nil {
				return err
			}
			if want, err = t.decode(ref, st.params.Slots()); err != nil {
				return err
			}
		}
		have, err := t.decode(got, st.params.Slots())
		if err != nil {
			return err
		}
		var worst float64
		for i := range have {
			if e := cmplx.Abs(have[i] - want[i]); e > worst {
				worst = e
			}
		}
		w.verified++
		if worst > w.maxSlotErr {
			w.maxSlotErr = worst
		}
		if tol := prog.Spec.VerifyTol; tol > 0 && worst > tol {
			w.failed++
			w.errs = append(w.errs, fmt.Sprintf("%s: slot error %.3g over the advertised tolerance %.3g", k.program, worst, tol))
		}
		if local != nil {
			out, err := local.Submit(context.Background(), k.program, t.id, in.ct)
			if err != nil {
				return fmt.Errorf("local-path %s: %w", k.program, err)
			}
			var buf bytes.Buffer
			if err := out.Write(&buf); err != nil {
				return err
			}
			if !bytes.Equal(buf.Bytes(), k.body) {
				w.failed++
				w.errs = append(w.errs, fmt.Sprintf("%s: cluster response differs from the local path's bytes", k.program))
			}
		}
	}
	return nil
}

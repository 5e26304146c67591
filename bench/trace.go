package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one call the harness made into a layer. Spans of one replayed
// request share Req. Parent names the span that caused this one: the
// harness replays a request's layers one after another from outside (HTTP
// round trip, then the same ciphertext through Core.Submit, then through
// the executor, ...), so children run after their parent rather than inside
// it, and a span's self time is its duration minus its children's durations.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Req     int    `json:"req"`    // -1 for kernel loops
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, at exit. The traced
// pass runs at concurrency 1, so it needs no lock. A nil tracer times calls
// without recording them — the untraced side of trace.overhead_share.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextID is the id the next span will get, for a caller whose fn records
// children truly nested inside it (the executor around its refreshes).
func (t *tracer) nextID() int {
	if t == nil {
		return -1
	}
	return len(t.spans)
}

// do times fn and, when tracing, records it as a span under parent. The
// slot is reserved before fn runs, so spans fn records come after it.
func (t *tracer) do(name string, parent, req int, fn func() error) (int, time.Duration, error) {
	id := -1
	if t != nil {
		id = len(t.spans)
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name})
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if t != nil {
		s := start.Sub(t.t0).Nanoseconds()
		t.spans[id].StartNs, t.spans[id].EndNs = s, s+d.Nanoseconds()
	}
	return id, d, err
}

// repeat runs fn once untimed (pool and cache warm-up) and then n timed
// times, each a span, and returns the median duration.
func (t *tracer) repeat(name string, n int, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	ds := make([]float64, n)
	for i := range ds {
		_, d, err := t.do(name, -1, -1, fn)
		if err != nil {
			return 0, err
		}
		ds[i] = float64(d)
	}
	return time.Duration(median(ds)), nil
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Note  string `json:"note"`
		Spans []span `json:"spans"`
	}{"self time = duration - sum of children's durations; see bench/README.md", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

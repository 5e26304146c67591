// Package telemetry holds the lock-free streaming latency histogram shared
// by the serving runtime (request latencies) and the cluster runtime
// (per-collective network latencies). It lives in its own package so both
// can meter with identical bucket shapes without an import cycle.
package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// latency histogram: geometric buckets from 1µs growing ×1.25, which
// bounds quantile error to ~12% — plenty for p50/p95/p99 serving
// dashboards — with lock-free atomic observation.
const (
	histBuckets = 96
	histBaseNs  = 1e3 // 1µs
	histGrowth  = 1.25
)

// Histogram is a fixed-shape streaming latency histogram.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

func bucketOf(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns <= histBaseNs {
		return 0
	}
	b := int(math.Log(ns/histBaseNs) / math.Log(histGrowth))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	// The max moves first, so a concurrent Quantile that counts this sample
	// also sees a max that covers it.
	for {
		cur := h.maxNs.Load()
		if d.Nanoseconds() <= cur || h.maxNs.CompareAndSwap(cur, d.Nanoseconds()) {
			break
		}
	}
	h.counts[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
}

// Quantile returns the approximate q-quantile (q in [0,1]) in
// nanoseconds, or 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cum += h.counts[b].Load()
		if cum >= target {
			// Geometric midpoint of the bucket's bounds, but never more
			// than the largest sample: the top sample may sit in the lower
			// half of its bucket.
			lo := histBaseNs * math.Pow(histGrowth, float64(b))
			return math.Min(lo*math.Sqrt(histGrowth), float64(h.maxNs.Load()))
		}
	}
	return float64(h.maxNs.Load())
}

// LatencySummary is the JSON-facing quantile snapshot, in milliseconds.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summary snapshots the histogram.
func (h *Histogram) Summary() LatencySummary {
	n := h.count.Load()
	s := LatencySummary{
		Count: n,
		P50Ms: h.Quantile(0.50) / 1e6,
		P95Ms: h.Quantile(0.95) / 1e6,
		P99Ms: h.Quantile(0.99) / 1e6,
		MaxMs: float64(h.maxNs.Load()) / 1e6,
	}
	if n > 0 {
		s.MeanMs = float64(h.sumNs.Load()) / float64(n) / 1e6
	}
	return s
}

package telemetry

import (
	"math"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty Quantile(0.5) = %g, want 0", q)
	}
	if s := h.Summary(); s != (LatencySummary{}) {
		t.Fatalf("empty Summary = %+v, want zero", s)
	}
}

// TestSingleSample: with one sample every quantile is that sample's bucket,
// clamped to the sample itself, and the mean and max are exact.
func TestSingleSample(t *testing.T) {
	for _, d := range []time.Duration{500 * time.Nanosecond, 38 * time.Millisecond, 3 * time.Second} {
		var h Histogram
		h.Observe(d)
		s := h.Summary()
		ms := float64(d.Nanoseconds()) / 1e6
		if s.Count != 1 || s.MeanMs != ms || s.MaxMs != ms {
			t.Fatalf("%v: count/mean/max = %d/%g/%g, want 1/%g/%g", d, s.Count, s.MeanMs, s.MaxMs, ms, ms)
		}
		for _, q := range []float64{s.P50Ms, s.P95Ms, s.P99Ms} {
			if q > s.MaxMs {
				t.Fatalf("%v: quantile %g ms above max %g ms", d, q, s.MaxMs)
			}
			if d > time.Microsecond && math.Abs(q-ms)/ms > 0.12 {
				t.Fatalf("%v: quantile %g ms off the only sample by more than 12%%", d, q)
			}
		}
	}
}

// TestQuantileErrorBound: on a spread of latencies the reported quantiles
// stay within the documented 12 % of the exact ones.
func TestQuantileErrorBound(t *testing.T) {
	var h Histogram
	const n = 10000
	// Log-uniform from 10 µs to 1 s, sorted by construction.
	sample := func(i int) float64 { return 1e4 * math.Pow(1e5, float64(i)/float64(n-1)) }
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(sample(i)))
	}
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		exact := sample(int(math.Ceil(q*n)) - 1)
		if got := h.Quantile(q); math.Abs(got-exact)/exact > 0.12 {
			t.Fatalf("Quantile(%g) = %g ns, exact %g ns: off by more than 12%%", q, got, exact)
		}
	}
}

// TestP99NeverAboveMax: a top sample in the lower half of its bucket used to
// report p99 > max (the bucket's midpoint).
func TestP99NeverAboveMax(t *testing.T) {
	for b := 20; b < 80; b++ {
		var h Histogram
		lo := histBaseNs * math.Pow(histGrowth, float64(b))
		h.Observe(time.Duration(lo * 1.01)) // just inside bucket b
		s := h.Summary()
		if s.P50Ms > s.MaxMs || s.P99Ms > s.MaxMs {
			t.Fatalf("bucket %d: p50 %g / p99 %g ms above max %g ms", b, s.P50Ms, s.P99Ms, s.MaxMs)
		}
	}
}

// TestConcurrentObserve (run under -race): observations from many
// goroutines are all counted, and the max is the largest of them.
func TestConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Microsecond)
				if i%500 == 0 {
					h.Summary()
				}
			}
		}(g)
	}
	wg.Wait()
	s := h.Summary()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	if want := float64(goroutines*per) / 1e3; s.MaxMs != want {
		t.Fatalf("max = %g ms, want %g", s.MaxMs, want)
	}
	if want := float64(goroutines*per+1) / 2 / 1e3; math.Abs(s.MeanMs-want) > 1e-9 {
		t.Fatalf("mean = %g ms, want %g", s.MeanMs, want)
	}
}

// TestStartPprof: the profiler answers on the listener it was given and a
// taken address is reported, not swallowed.
func TestStartPprof(t *testing.T) {
	at, err := StartPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + at.String() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline = %d, want 200", resp.StatusCode)
	}
	if _, err := StartPprof(at.String()); err == nil {
		t.Fatal("second profiler on a bound address reported no error")
	}
}

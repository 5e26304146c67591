package bootstrap

import (
	"runtime"
	"testing"

	"cinnamon/internal/ckks"
)

var benchSink *ckks.Ciphertext

// BenchmarkBootstrapSolo is one warm refresh at logN=7 over 16 levels with
// nothing beside it: the per-refresh CPU and allocation that, once refreshes
// fill every core, are the deep serving workload's throughput.
func BenchmarkBootstrapSolo(b *testing.B) {
	f := newRefreshFixture(b)
	bs, ct := f.bs[0], f.cts[0][0]
	var err error
	for i := 0; i < 3; i++ { // encode the diagonals, compile the plans, fill the pools
		if benchSink, err = bs.Bootstrap(ct); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, err = bs.Bootstrap(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBootstrapAllocCeiling pins what a warm logN=7 Bootstrap may allocate.
// With the transforms' inner sums and the Chebyshev direct sums on the lazy
// accumulator it measures ≈ 8.4k allocations and ≈ 6.3 MB; the strict chains
// they replaced cost 22k and 16.9 MB. The ceilings sit between, so either
// chain coming back — or a per-term allocation creeping into the
// accumulator — fails here.
func TestBootstrapAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is perturbed by the race detector")
	}
	f := newRefreshFixture(t)
	bs, ct := f.bs[0], f.cts[0][0]
	run := func() {
		if _, err := bs.Bootstrap(ct); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, run)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call of its own.
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / (1 << 20)
	if allocs > 11000 || mb > 8.5 {
		t.Fatalf("warm Bootstrap: %.0f allocations, %.1f MB per call; ceilings 11000 and 8.5 MB", allocs, mb)
	}
}

package keyswitch

import (
	"testing"

	"cinnamon/internal/ring"
)

// TestCommStatsMeasuredMatchesAnalytic is satellite guarantee #1: the
// CommStats the engine returns are MEASURED at the transport boundary
// (limbs absorbed across a chip border for input broadcast, partial sums
// shipped to the aggregation root for output aggregation), and the
// measurement must equal the paper's closed-form bill (AnalyticStats)
// whenever every chip owns at least one limb.
func TestCommStatsMeasuredMatchesAnalytic(t *testing.T) {
	tc := newKSContext(t, nil)
	pLen := tc.params.PBasis.Len()
	for _, nChips := range []int{1, 2, 3, 4} {
		eng, err := NewEngine(tc.params, nChips)
		if err != nil {
			t.Fatal(err)
		}
		_, ct := tc.encryptRandom(t, 64, int64(100+nChips))
		l := ct.Level()

		// Input broadcast: measured per chip as the absorbed limbs it
		// does not own.
		_, _, got, err := eng.KeySwitch(ct.C1, tc.rlk, InputBroadcast)
		if err != nil {
			t.Fatal(err)
		}
		want := AnalyticStats(InputBroadcast, l, nChips, pLen)
		if got != want {
			t.Fatalf("nChips=%d input broadcast: measured %+v, analytic %+v", nChips, got, want)
		}

		// Output aggregation: measured at the aggregation point.
		rlkMod, err := tc.kg.GenEvalKeyDigits(squareSecret(t, tc), tc.sk, ModularDigitSets(tc.params, nChips))
		if err != nil {
			t.Fatal(err)
		}
		_, _, got, err = eng.KeySwitch(ct.C1, rlkMod, OutputAggregation)
		if err != nil {
			t.Fatal(err)
		}
		want = AnalyticStats(OutputAggregation, l, nChips, pLen)
		if got != want {
			t.Fatalf("nChips=%d output aggregation: measured %+v, analytic %+v", nChips, got, want)
		}

		// CiFHER stays analytic by definition (modeled baseline).
		_, _, got, err = eng.KeySwitch(ct.C1, tc.rlk, CiFHER)
		if err != nil {
			t.Fatal(err)
		}
		want = AnalyticStats(CiFHER, l, nChips, pLen)
		if got != want {
			t.Fatalf("nChips=%d CiFHER: %+v, want %+v", nChips, got, want)
		}
	}
}

// TestCommStatsMeasuredAtReducedLevel exercises the regime the analytic
// formula still covers after rescaling has dropped limbs: the measured bill
// tracks the ciphertext's CURRENT level, not the maximum.
func TestCommStatsMeasuredAtReducedLevel(t *testing.T) {
	tc := newKSContext(t, nil)
	nChips := 3
	eng, err := NewEngine(tc.params, nChips)
	if err != nil {
		t.Fatal(err)
	}
	_, ct := tc.encryptRandom(t, 64, 55)
	// Drop two levels so l+1 shrinks below the maximum chain length.
	ct2, err := tc.ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err = tc.ev.Rescale(ct2)
	if err != nil {
		t.Fatal(err)
	}
	ct4, err := tc.ev.MulRelin(ct2, ct2)
	if err != nil {
		t.Fatal(err)
	}
	ct4, err = tc.ev.Rescale(ct4)
	if err != nil {
		t.Fatal(err)
	}
	l := ct4.Level()
	if l >= tc.params.MaxLevel() {
		t.Fatalf("expected reduced level, got %d", l)
	}
	_, _, got, err := eng.KeySwitch(ct4.C1, tc.rlk, InputBroadcast)
	if err != nil {
		t.Fatal(err)
	}
	want := AnalyticStats(InputBroadcast, l, nChips, tc.params.PBasis.Len())
	if got != want {
		t.Fatalf("level-%d input broadcast: measured %+v, analytic %+v", l, got, want)
	}
}

func squareSecret(t *testing.T, tc *ksContext) *ring.Poly {
	t.Helper()
	r := tc.params.Ring
	s2 := r.NewPoly(tc.params.QPBasis())
	if err := r.MulCoeffs(tc.sk.S, tc.sk.S, s2); err != nil {
		t.Fatal(err)
	}
	return s2
}

package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.5, false},
		{20, 0.5, true},
		{99, 0.9, false},
		{100, 0.9, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{40, 0.25, false}, // a lower quartile counts the samples below it
		{41, 0.25, true},
		{0, 0.5, false},
	} {
		_, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.want {
			t.Errorf("n=%d q=%g: err=%v, want ok=%v", tc.n, tc.q, err, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	got, err := percentile(seq(1000), 0.99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	got, err = percentile(seq(21), 0.5)
	if err != nil || got != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", got, err)
	}
}

func TestSummarizePicksSupportedTail(t *testing.T) {
	s := summarize(seq(150))
	if s.TailQ != 0.9 || s.Tail != 135 {
		t.Fatalf("tail of 150 samples = p%g %v, want p90 135", s.TailQ*100, s.Tail)
	}
	if s := summarize(seq(5)); s.Refuse == "" || s.P50 != 0 {
		t.Fatalf("5 samples reported a median: %+v", s)
	}
}

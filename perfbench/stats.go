package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile, on
// the side of its tail. A median therefore needs 20 samples, a p99 1000 and
// a lower quartile 41.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses, with an error, a percentile that has fewer than minBeyond samples
// beyond it: above it from the median up, below it for a lower quantile.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if q < 0.5 {
		beyond = rank - 1
	}
	if n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tailQuantiles are the percentiles a report considers for a tail, highest
// first.
var tailQuantiles = []float64{0.99, 0.9, 0.5}

// summary is one timing as a report prints it: the median and the highest
// percentile that the sample count supports, with that count.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50,omitempty"`
	TailQ  float64 `json:"tail_q,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
	Mean   float64 `json:"mean,omitempty"`
	Refuse string  `json:"refused,omitempty"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) > 0 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		s.Mean = sum / float64(len(xs))
	}
	p50, err := percentile(xs, 0.5)
	if err != nil {
		s.Refuse = err.Error()
		return s
	}
	s.P50 = p50
	for _, q := range tailQuantiles {
		if v, err := percentile(xs, q); err == nil {
			s.TailQ, s.Tail = q, v
			break
		}
	}
	return s
}

// median of xs, for the few-sample figures (set-up repeats) that report a
// central value but no percentile claim.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	pn "probnucleus"
)

var testMix = serveMix{
	Rate: 40, PLocal: 0.85, PWeak: 0.05, PGlobal: 0.05,
	LocalGraph: []string{"a", "b"}, WeakGraph: "b", GlobGraph: "a", PutGraph: "b",
	NucleiTh: 0.1, LocalTheta: []float64{0.1, 0.2}, LocalWeight: []float64{0.7, 0.3},
}

func TestSameSeedSameInputs(t *testing.T) {
	spec := graphSpec{Name: "krogan", Scale: 0.04}
	a, err := edgeList(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := edgeList(spec, 7)
	c, _ := edgeList(spec, 8)
	if !bytes.Equal(a, b) {
		t.Fatal("edge list differs for the same seed")
	}
	if bytes.Equal(a, c) {
		t.Fatal("edge list identical for different seeds")
	}

	for name, gen := range map[string]func(int64) []request{
		"mc":    func(s int64) []request { return mcSchedule(s, "g", 0.001, 50) },
		"sweep": func(s int64) []request { return sweepSchedule(s, "g", 50) },
		"serve": func(s int64) []request { return serveSchedule(s, testMix, 10*time.Second) },
	} {
		if !reflect.DeepEqual(gen(3), gen(3)) {
			t.Errorf("%s schedule differs for the same seed", name)
		}
		if reflect.DeepEqual(gen(3), gen(4)) {
			t.Errorf("%s schedule identical for different seeds", name)
		}
	}
}

func TestRelabelledInputKeepsTheWork(t *testing.T) {
	spec := graphSpec{Name: "krogan", Scale: 0.04}
	var tris []int
	for _, seed := range []int64{1, 2} {
		text, _ := edgeList(spec, seed)
		pg, err := pn.ReadEdgeList(bytes.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		pre, err := pn.Prepare(pg, 1)
		if err != nil {
			t.Fatal(err)
		}
		tris = append(tris, pre.Triangles(), pre.Cliques())
	}
	if tris[0] != tris[2] || tris[1] != tris[3] {
		t.Fatalf("relabelling changed the triangle/4-clique counts: %v", tris)
	}
}

func TestServeScheduleMix(t *testing.T) {
	reqs := serveSchedule(1, testMix, 100*time.Second)
	n := classCounts(reqs)
	total := len(reqs)
	if total < 3600 || total > 4400 {
		t.Fatalf("%d arrivals in 100s at 40/s", total)
	}
	for _, c := range []string{classLocal, classWeak, classGlobal, classPut} {
		if share := float64(n[c]) / float64(total); share < 0.04 {
			t.Errorf("class %s is %.3f of requests", c, share)
		}
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Due < reqs[i-1].Due {
			t.Fatal("arrivals out of order")
		}
	}
}

// classCounts tallies a schedule by class.
func classCounts(reqs []request) map[string]int {
	out := make(map[string]int)
	for _, r := range reqs {
		out[r.Class]++
	}
	return out
}

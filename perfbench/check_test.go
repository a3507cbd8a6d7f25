package main

import (
	"bytes"
	"context"
	"testing"

	pn "probnucleus"
)

func TestDigestFlagsPerturbedAnswer(t *testing.T) {
	text, err := edgeList(graphSpec{Name: "krogan", Scale: 0.04}, 5)
	if err != nil {
		t.Fatal(err)
	}
	rf := newReferences(map[string][][]byte{"krogan": {text}}, 1, 50)
	pg, _ := pn.ReadEdgeList(bytes.NewReader(text))
	eng := pn.NewEngine(1, 1)
	defer eng.Close()

	local := request{Class: classLocal, Graph: "krogan", Theta: 0.2}
	res, err := pn.LocalDecompose(pg, 0.2, pn.Options{Mode: pn.ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := rf.match(local, []int{0}, digestLocal(res)); !ok || err != nil {
		t.Fatalf("unperturbed local answer rejected: %v", err)
	}
	res.Nucleusness[len(res.Nucleusness)/2]++
	if ok, _ := rf.match(local, []int{0}, digestLocal(res)); ok {
		t.Fatal("perturbed nucleusness passed the digest check")
	}

	glob := request{Class: classGlobal, Graph: "krogan", Theta: 0.2, Seed: 9}
	ns, err := eng.Global(context.Background(), pg, pn.NucleiRequest{K: 1, Theta: 0.2, Samples: 50, Seed: 9})
	if err != nil || len(ns) == 0 {
		t.Fatalf("global: %d nuclei, %v", len(ns), err)
	}
	if ok, err := rf.match(glob, []int{0}, digestNuclei(ns)); !ok || err != nil {
		t.Fatalf("unperturbed global answer rejected: %v", err)
	}
	ns[0].MinProb += 0.01
	if ok, _ := rf.match(glob, []int{0}, digestNuclei(ns)); ok {
		t.Fatal("perturbed Pr̂ passed the digest check")
	}
	if err := checkNuclei(ns, 1, 0.2); err != nil {
		t.Fatalf("invariants of a valid answer: %v", err)
	}
	ns[0].MinProb = 0.1
	if err := checkNuclei(ns, 1, 0.2); err == nil {
		t.Fatal("MinProb below θ passed the invariant check")
	}
}

func TestAnchorsHold(t *testing.T) {
	if err := checkAnchors(); err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"testing"
	"time"
)

func ms(x int) time.Duration { return time.Duration(x) * time.Millisecond }

func TestSelfTimeOverNestedSpans(t *testing.T) {
	// request [0,100] → registry [10,90] → core [20,50] and core [40,80];
	// a second request [200,210] has no children.
	spans := []span{
		{ID: 1, Req: 1, Layer: layerBench, Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Req: 1, Layer: layerRegistry, Start: ms(10), End: ms(90)},
		{ID: 3, Parent: 2, Req: 1, Layer: layerCore, Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 2, Req: 1, Layer: layerCore, Start: ms(40), End: ms(80)},
		{ID: 5, Req: 2, Layer: layerBench, Start: ms(200), End: ms(210)},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		layerBench:    {Total: ms(110), Self: ms(30)}, // 20 outside registry + all of request 2
		layerRegistry: {Total: ms(80), Self: ms(20)},  // overlapping children cover [20,80]
		layerCore:     {Total: ms(70), Self: ms(70)},
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("%s: got %+v, want %+v", l, got[l], w)
		}
	}

	p := layerProfile(spans, map[int64]bool{1: true})
	if p.Requests != 1 || p.Wall != ms(100) {
		t.Fatalf("profile of request 1: %d requests, wall %v", p.Requests, p.Wall)
	}
	if p.Share[layerCore] != 0.7 || p.Share[layerRegistry] != 0.2 || p.Coverage != 0.8 {
		t.Fatalf("shares %v coverage %v; want core 0.7 (overlapping siblings both count) registry 0.2 coverage 0.8", p.Share, p.Coverage)
	}
}

func TestCoveredClipsToParent(t *testing.T) {
	parent := span{Start: ms(10), End: ms(20)}
	kids := []span{{Start: ms(0), End: ms(12)}, {Start: ms(18), End: ms(30)}, {Start: ms(25), End: ms(40)}}
	if got := covered(parent, kids); got != ms(4) {
		t.Fatalf("covered = %v, want 4ms", got)
	}
}

func TestAttributeByContainment(t *testing.T) {
	tr := newTracer()
	// Two overlapping registry calls that may compute a local result, and a
	// put that prepares, then saves.
	a := &cause{id: 1, req: 1, start: ms(20), end: ms(50), kinds: []string{evLocal}}
	b := &cause{id: 2, req: 2, start: ms(10), end: ms(40), kinds: []string{evLocal}}
	put := &cause{id: 3, req: 3, start: ms(60), end: ms(100), kinds: []string{evPrepare, evSave}}
	events := []event{
		{kind: evLocal, start: ms(15), end: ms(38)},   // only b contains it
		{kind: evLocal, start: ms(25), end: ms(39)},   // b ends first but has one: a
		{kind: evLocal, start: ms(30), end: ms(45)},   // a already has one
		{kind: evSave, start: ms(80), end: ms(95)},    // the put's save
		{kind: evPrepare, start: ms(61), end: ms(79)}, // the put's prepare
		{kind: evGlobal, start: ms(1), end: ms(2)},    // no call causes a global
	}
	if got := attribute(tr, []*cause{a, b, put}, events); got != 2 {
		t.Fatalf("%d unattributed events, want 2", got)
	}
	parent := make(map[string]int64)
	for _, s := range tr.spans {
		parent[s.Name+"@"+s.Start.String()] = s.Parent
	}
	want := map[string]int64{
		"core.LocalPrepared@15ms": 2, "core.LocalPrepared@25ms": 1,
		"graph.Prepare@61ms": 3, "artifact.Save@80ms": 3,
	}
	if len(parent) != len(want) {
		t.Fatalf("spans %v, want %v", parent, want)
	}
	for k, p := range want {
		if parent[k] != p {
			t.Errorf("%s under %d, want %d", k, parent[k], p)
		}
	}
}

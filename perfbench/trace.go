package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names a span's module. The root span of every request belongs to
// layerBench: its self time is the benchmark's own work around the calls.
const (
	layerBench     = "bench"
	layerProbgraph = "probgraph"
	layerGraph     = "graph"
	layerArtifact  = "artifact"
	layerRegistry  = "registry"
	layerCore      = "core"
)

// layers lists the program's modules in report order.
var layers = []string{layerProbgraph, layerGraph, layerArtifact, layerRegistry, layerCore}

// span is one timed call into a layer. Times are offsets from the tracer's
// epoch; Parent is 0 for a request's root span.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	// overhead is the time spent recording spans and events (ns), which an
	// untraced run does not pay.
	overhead atomic.Int64
	mu       sync.Mutex
	spans    []span
	causes   []*cause
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the offset of the current instant from the epoch.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// id reserves a span id, so a parent's id is known before its children end.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call times fn as a span of the given layer under parent. When fn may
// cause engine events of the given kinds, it returns the call as their
// possible cause; otherwise, and without a tracer, it returns nil.
func (t *tracer) call(req, parent int64, layer, name string, kinds []string, fn func()) *cause {
	if t == nil {
		fn()
		return nil
	}
	t0 := time.Now()
	id, start := t.id(), t.now()
	pre := time.Since(t0)
	fn()
	t1 := time.Now()
	end := t.now()
	t.add(span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: start, End: end})
	var c *cause
	if len(kinds) > 0 {
		c = &cause{id: id, req: req, start: start, end: end, kinds: kinds}
		t.mu.Lock()
		t.causes = append(t.causes, c)
		t.mu.Unlock()
	}
	t.overhead.Add(int64(pre + time.Since(t1)))
	return c
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is a layer's summed span time and the part no child span covers.
type layerTime struct {
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// selfTimes sums, per layer, each span's duration and its self time: the
// duration minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]layerTime {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Layer]
		d := s.End - s.Start
		lt.Total += d
		lt.Self += d - covered(s, kids[s.ID])
		out[s.Layer] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			sum += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// profile is the traced run's layer breakdown: each layer's share of request
// wall time by self time, and how much of that wall time layer spans cover.
type profile struct {
	Requests int                  `json:"requests"`
	Wall     time.Duration        `json:"wall_ns"`
	Layers   map[string]layerTime `json:"layers"`
	Share    map[string]float64   `json:"share"`
	Coverage float64              `json:"coverage"`
}

// layerProfile restricts the spans to the given requests (the timed phase)
// and computes their profile. Request wall time is the summed duration of
// the root spans.
func layerProfile(spans []span, reqs map[int64]bool) profile {
	var sel []span
	p := profile{Share: make(map[string]float64)}
	for _, s := range spans {
		if !reqs[s.Req] {
			continue
		}
		sel = append(sel, s)
		if s.Parent == 0 {
			p.Requests++
			p.Wall += s.End - s.Start
		}
	}
	p.Layers = selfTimes(sel)
	if p.Wall > 0 {
		for _, l := range layers {
			p.Share[l] = float64(p.Layers[l].Self) / float64(p.Wall)
		}
		p.Coverage = 1 - float64(p.Layers[layerBench].Self)/float64(p.Wall)
	}
	return p
}

package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	pn "probnucleus"
)

// Kinds of engine event a traced call can cause: the semantics of a finished
// engine request, as the observer names them, and an artifact save.
const (
	evLocal   = "local"
	evGlobal  = "global"
	evWeak    = "weak"
	evPrepare = "prepare"
	evSave    = "save"
)

// evSpan gives the layer and name of the span an event becomes.
var evSpan = map[string][2]string{
	evLocal:   {layerCore, "core.LocalPrepared"},
	evGlobal:  {layerCore, "core.GlobalPrepared"},
	evWeak:    {layerCore, "core.WeakPrepared"},
	evPrepare: {layerGraph, "graph.Prepare"},
	evSave:    {layerArtifact, "artifact.Save"},
}

// event is one finished engine request or artifact save, as an interval on
// the tracer's clock. The interval of an engine request includes its queue
// wait.
type event struct {
	kind       string
	start, end time.Duration
}

// eventLog keeps the events of a traced run. Until a tracer is attached it
// records nothing.
type eventLog struct {
	tr     atomic.Pointer[tracer]
	mu     sync.Mutex
	events []event
}

func (l *eventLog) add(kind string, d time.Duration) {
	t := l.tr.Load()
	if t == nil {
		return
	}
	t0 := time.Now()
	end := t.now()
	l.mu.Lock()
	l.events = append(l.events, event{kind: kind, start: end - d, end: end})
	l.mu.Unlock()
	t.overhead.Add(int64(time.Since(t0)))
}

// recorder is the observer of a workload's engine and registry. It forwards
// every event to EngineMetrics and logs each finished engine request and
// artifact save. The semantics type of the observer interface is internal to
// probnucleus, so recorder is generic over it and forwards RequestFinished
// through a method value of EngineMetrics.
type recorder[S fmt.Stringer] struct {
	*pn.EngineMetrics
	finished func(S, time.Duration, bool)
	log      *eventLog
}

func newRecorder[S fmt.Stringer](m *pn.EngineMetrics, finished func(S, time.Duration, bool), log *eventLog) *recorder[S] {
	return &recorder[S]{EngineMetrics: m, finished: finished, log: log}
}

func (o *recorder[S]) RequestFinished(s S, total time.Duration, failed bool) {
	o.finished(s, total, failed)
	o.log.add(s.String(), total)
}

func (o *recorder[S]) ArtifactSaved(bytes int64, d time.Duration) {
	o.EngineMetrics.ArtifactSaved(bytes, d)
	o.log.add(evSave, d)
}

// cause is a traced call that may cause engine events of the given kinds.
type cause struct {
	id, req    int64
	start, end time.Duration
	kinds      []string
}

// notCaused marks a call as causing no more events of the kind: the
// registry cache answered it, or its event has been attributed.
func (c *cause) notCaused(kind string) {
	if c != nil {
		c.kinds = slices.DeleteFunc(c.kinds, func(k string) bool { return k == kind })
	}
}

// attribute adds each event as a child span of the traced call that contains
// it: among the calls that may cause its kind and are open over its whole
// interval, the one that ends first, since the observer fires just before
// the call that caused the event returns. Each call takes at most one event
// of a kind. It returns the number of events no call contains.
func attribute(tr *tracer, causes []*cause, events []event) (unattributed int64) {
	events = append([]event(nil), events...)
	sort.Slice(events, func(i, j int) bool { return events[i].end < events[j].end })
	for _, e := range events {
		var best *cause
		for _, c := range causes {
			if c.start <= e.start && e.end <= c.end && slices.Contains(c.kinds, e.kind) && (best == nil || c.end < best.end) {
				best = c
			}
		}
		if best == nil {
			unattributed++
			continue
		}
		best.notCaused(e.kind)
		sp := evSpan[e.kind]
		tr.add(span{Parent: best.id, Req: best.req, Layer: sp[0], Name: sp[1], Start: e.start, End: e.end})
	}
	return unattributed
}

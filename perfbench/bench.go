package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	pn "probnucleus"
)

const (
	nucleusK  = 1   // nucleus level of every global and weak request
	mcSamples = 100 // possible worlds per global and weak request
)

// inputSize records one graph of a workload's input.
type inputSize struct {
	Vertices  int `json:"vertices"`
	Edges     int `json:"edges"`
	Triangles int `json:"triangles"`
	Cliques   int `json:"cliques"`
	Bytes     int `json:"edge_list_bytes"`
}

// outcome is one executed request.
type outcome struct {
	req        request
	timed      bool
	start, end time.Time // send and completion
	latMs      float64   // from the due time in an open loop, else from the send
	hit        bool      // local request answered from the registry cache
	digest     uint64
	err        error
}

// putRec is one graph replacement, for deciding which edge-list variants a
// concurrent query may have seen.
type putRec struct {
	variant    int
	start, end time.Time
}

// resMemo remembers the last local result object returned for a key, so a
// later request returning the same object is known to be a cache hit.
type resMemo struct {
	res    *pn.LocalResult
	digest uint64
}

type resKey struct {
	graph string
	theta float64
}

// run is one workload's live state: its inputs, the program objects under
// test, and everything measured.
type run struct {
	seed   int64
	dir    string // artifact directory of this set-up
	texts  map[string][][]byte
	sizes  map[string]inputSize
	m      *pn.EngineMetrics
	obs    pn.EngineObserver // m, with the event log of a traced run
	log    *eventLog
	eng    *pn.Engine
	shards int
	reg    *pn.Registry // nil when the workload drives the engine directly
	pre    *pn.Prepared // the prepared graph of a registry-less workload
	tr     *tracer

	mu    sync.Mutex
	outs  []outcome
	calls map[string][]float64 // per-call layer timings (ms) and sizes (bytes)
	tails map[string]int       // support-tail evaluations by method
	puts  map[string][]putRec
	memo  map[resKey]resMemo
}

func newRun(seed int64, dir string) *run {
	r := &run{
		seed: seed, dir: dir,
		texts: make(map[string][][]byte),
		sizes: make(map[string]inputSize),
		m:     new(pn.EngineMetrics),
		log:   new(eventLog),
		calls: make(map[string][]float64),
		tails: make(map[string]int),
		puts:  make(map[string][]putRec),
		memo:  make(map[resKey]resMemo),
	}
	r.obs = newRecorder(r.m, r.m.RequestFinished, r.log)
	return r
}

// trace starts recording spans and engine events.
func (r *run) trace() {
	r.tr = newTracer()
	r.log.tr.Store(r.tr)
}

func (r *run) note(name string, v float64) {
	r.mu.Lock()
	r.calls[name] = append(r.calls[name], v)
	r.mu.Unlock()
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// close releases the program objects. The registry needs no closing; its
// engine does.
func (r *run) close() {
	if r.eng != nil {
		r.eng.Close()
	}
}

// generate renders nvariants edge lists of each graph from the seed.
func (r *run) generate(specs []graphSpec, nvariants int) error {
	for _, g := range specs {
		for v := 0; v < nvariants; v++ {
			text, err := edgeList(g, subSeed(r.seed, fmt.Sprintf("graph/%s/%d", g.Name, v)))
			if err != nil {
				return err
			}
			r.texts[g.Name] = append(r.texts[g.Name], text)
		}
	}
	return nil
}

// parse is the probgraph layer: one ReadEdgeList call.
func (r *run) parse(rid, parent int64, text []byte) (pg *pn.Graph, err error) {
	t0 := time.Now()
	r.tr.call(rid, parent, layerProbgraph, "probgraph.ReadEdgeList", nil, func() {
		pg, err = pn.ReadEdgeList(bytes.NewReader(text))
	})
	r.note("parse_ms", msSince(t0))
	r.note("parse_bytes", float64(len(text)))
	return pg, err
}

// register parses variant 0 of a graph and registers it.
func (r *run) register(ctx context.Context, name string) error {
	pg, err := r.parse(0, 0, r.texts[name][0])
	if err != nil {
		return err
	}
	h, err := r.reg.Put(ctx, name, pg)
	if err != nil {
		return err
	}
	r.sizes[name] = inputSize{Vertices: h.Vertices, Edges: h.Edges, Triangles: h.Triangles, Bytes: len(r.texts[name][0])}
	return nil
}

// --- executing requests ---

// exec runs one request against the program and checks its invariants. A
// traced run issues it as its layer calls, each a span under the request's
// root span.
func (r *run) exec(ctx context.Context, q request, due time.Time, timed bool) {
	rid, root := q.ID, r.tr.id()
	o := outcome{req: q, timed: timed, start: time.Now()}
	switch q.Class {
	case classLocal, classLocalAP:
		r.execLocal(ctx, q, rid, root, &o)
	case classGlobal, classWeak:
		r.execNuclei(ctx, q, rid, root, &o)
	case classPut:
		r.execPut(ctx, q, rid, root, &o)
	default:
		o.err = fmt.Errorf("unknown class %q", q.Class)
	}
	if due.IsZero() {
		due = o.start
	}
	o.latMs = float64(o.end.Sub(due).Nanoseconds()) / 1e6
	if r.tr != nil {
		r.tr.add(span{ID: root, Req: rid, Layer: layerBench, Name: "request." + q.Class,
			Start: o.start.Sub(r.tr.epoch), End: o.end.Sub(r.tr.epoch)})
	}
	r.mu.Lock()
	r.outs = append(r.outs, o)
	r.mu.Unlock()
}

func (r *run) execLocal(ctx context.Context, q request, rid, root int64, o *outcome) {
	counts := make(map[pn.Method]int)
	req := pn.LocalRequest{Theta: q.Theta, Mode: q.Mode, MethodCounts: counts}
	var res *pn.LocalResult
	var err error
	var c *cause
	if r.reg != nil {
		c = r.tr.call(rid, root, layerRegistry, "registry.Local", []string{evLocal}, func() {
			res, err = r.reg.Local(ctx, q.Graph, req)
		})
	} else {
		// The engine's own account of the call, queue wait included, becomes
		// its child span.
		r.tr.call(rid, root, layerCore, "core.LocalPrepared", []string{evLocal}, func() {
			res, err = r.eng.LocalPrepared(ctx, r.pre, req)
		})
	}
	o.end = time.Now()
	if err == nil {
		err = checkLocal(res, r.sizes[q.Graph].Triangles, q.Theta)
	}
	if o.err = err; err != nil {
		return
	}
	o.hit, o.digest = r.remember(q.Graph, q.Theta, res)
	if o.hit {
		c.notCaused(evLocal)
	} else if o.timed {
		r.mu.Lock()
		for m, n := range counts {
			r.tails[m.String()] += n
		}
		r.mu.Unlock()
	}
}

// remember digests a local result and reports whether it is the same object
// as the one last returned for its graph and θ, that is, a cache hit.
func (r *run) remember(graph string, theta float64, res *pn.LocalResult) (hit bool, digest uint64) {
	key := resKey{graph, theta}
	r.mu.Lock()
	m, ok := r.memo[key]
	r.mu.Unlock()
	if ok && m.res == res {
		return true, m.digest
	}
	digest = digestLocal(res)
	r.mu.Lock()
	r.memo[key] = resMemo{res: res, digest: digest}
	r.mu.Unlock()
	return false, digest
}

func (r *run) execNuclei(ctx context.Context, q request, rid, root int64, o *outcome) {
	req := pn.NucleiRequest{K: nucleusK, Theta: q.Theta, Samples: mcSamples, Seed: q.Seed}
	var ns []pn.ProbNucleus
	var err error
	if r.tr != nil {
		// Traced, the registry lookup of the cached local result is its own
		// span; the kernel call that follows finds it cached again.
		var res *pn.LocalResult
		c := r.tr.call(rid, root, layerRegistry, "registry.Local", []string{evLocal}, func() {
			res, err = r.reg.Local(ctx, q.Graph, pn.LocalRequest{Theta: q.Theta, Mode: pn.ModeDP})
		})
		if err == nil {
			if hit, _ := r.remember(q.Graph, q.Theta, res); hit {
				c.notCaused(evLocal)
			}
		}
	}
	if err == nil {
		ev, name := evGlobal, "registry.Global"
		call := r.reg.Global
		if q.Class == classWeak {
			ev, name, call = evWeak, "registry.Weak", r.reg.Weak
		}
		// A put may have purged the local result since the lookup, so the
		// call may compute it again.
		r.tr.call(rid, root, layerRegistry, name, []string{ev, evLocal}, func() {
			ns, err = call(ctx, q.Graph, req)
		})
	}
	o.end = time.Now()
	if err == nil {
		err = checkNuclei(ns, nucleusK, q.Theta)
	}
	if o.err = err; err == nil {
		o.digest = digestNuclei(ns)
	}
}

func (r *run) execPut(ctx context.Context, q request, rid, root int64, o *outcome) {
	rec := putRec{variant: q.Variant, start: o.start}
	pg, err := r.parse(rid, root, r.texts[q.Graph][q.Variant])
	var h pn.GraphHandle
	if err == nil {
		r.tr.call(rid, root, layerRegistry, "registry.Put", []string{evPrepare, evSave}, func() {
			h, err = r.reg.Put(ctx, q.Graph, pg)
		})
	}
	o.end = time.Now()
	if err == nil && h.Triangles != r.sizes[q.Graph].Triangles {
		err = fmt.Errorf("put %s: %d triangles, want %d", q.Graph, h.Triangles, r.sizes[q.Graph].Triangles)
	}
	if o.err = err; err != nil {
		return
	}
	rec.end = o.end
	r.mu.Lock()
	r.puts[q.Graph] = append(r.puts[q.Graph], rec)
	r.mu.Unlock()
}

// variantsSeen lists the edge-list variants graph may have had while a query
// ran from start to end: the initial one and every completed put's, except
// those a later put had certainly replaced before the query started.
func (r *run) variantsSeen(graph string, start, end time.Time) []int {
	puts := append([]putRec{{variant: 0}}, r.puts[graph]...)
	seen := make(map[int]bool)
	for j, p := range puts {
		if j > 0 && !p.start.Before(end) {
			continue
		}
		replaced := false
		for k, l := range puts {
			if k > 0 && (j == 0 || l.start.After(p.end)) && l.end.Before(start) {
				replaced = true
				break
			}
		}
		if !replaced {
			seen[p.variant] = true
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// verify compares every answer with its reference, outside the timed phase.
// It returns the number of failed operations and a few of their errors.
func (r *run) verify(refs *references) (failed int, errs []string) {
	for i := range r.outs {
		o := &r.outs[i]
		if o.err == nil && o.req.Class != classPut {
			ok, err := refs.match(o.req, r.variantsSeen(o.req.Graph, o.start, o.end), o.digest)
			switch {
			case err != nil:
				o.err = fmt.Errorf("reference: %w", err)
			case !ok:
				o.err = fmt.Errorf("answer differs from its reference")
			}
		}
		if o.err != nil {
			failed++
			if len(errs) < 5 {
				errs = append(errs, fmt.Sprintf("request %d (%s %s θ=%g): %v", o.req.ID, o.req.Class, o.req.Graph, o.req.Theta, o.err))
			}
		}
	}
	return failed, errs
}

// loadArtifacts loads every artifact the run persisted once, as a restarting
// server would, and records each graph's 4-clique count, which only the
// artifact reports.
func (r *run) loadArtifacts() error {
	paths, err := filepath.Glob(filepath.Join(r.dir, "*.pna"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no artifacts in %s", r.dir)
	}
	for _, p := range paths {
		t0 := time.Now()
		pre, _, err := pn.LoadArtifact(p)
		if err != nil {
			return fmt.Errorf("load %s: %w", p, err)
		}
		r.note("load_ms", msSince(t0))
		name, _, _ := strings.Cut(filepath.Base(p), ".v")
		s := r.sizes[name]
		s.Cliques = pre.Cliques()
		r.sizes[name] = s
	}
	return nil
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

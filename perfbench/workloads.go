package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	pn "probnucleus"
)

// workload is one traffic shape. Its set-up registers or prepares every
// graph; its loop drives the program for the timed phase.
type workload struct {
	name string
	// main and side are the request classes behind main_p50_ms and
	// side_ms; side_ms is side's sideQ-quantile.
	main, side string
	sideQ      float64
	setup      func(ctx context.Context, r *run) error
	// loop runs the warm-up, calls mark as the timed phase starts, and
	// returns the timed phase's length.
	loop func(ctx context.Context, r *run, warm, timed time.Duration, mark func()) (elapsed time.Duration)
}

var workloads = []workload{
	{
		name: "mc-krogan",
		main: classGlobal, side: classWeak, sideQ: 0.25,
		setup: setupMC, loop: closedLoop(3, func(r *run) []request { return mcSchedule(r.seed, mcGraph.Name, mcTheta, 5000) }),
	},
	{
		name: "sweep-flickr",
		main: classLocal, side: classLocalAP, sideQ: 0.5,
		setup: setupSweep, loop: closedLoop(4, func(r *run) []request { return sweepSchedule(r.seed, sweepGraph.Name, 5000) }),
	},
	{
		name: "serve-mix",
		main: classLocal, side: classGlobal, sideQ: 0.5,
		setup: setupServe, loop: openLoop,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// --- mc-krogan: the batch Monte-Carlo user ---

var mcGraph = graphSpec{Name: "krogan", Scale: 0.06}

const mcTheta = 0.001

// setupMC registers the graph on a one-shard engine with all cores as
// workers (the nudecomp default) and caches its θ local result, which every
// global and weak request prunes with.
func setupMC(ctx context.Context, r *run) error {
	if err := r.generate([]graphSpec{mcGraph}, 1); err != nil {
		return err
	}
	r.eng, r.shards = pn.NewEngine(1, 0, pn.WithObserver(r.obs)), 1
	r.reg = pn.NewRegistry(r.eng, pn.WithCacheCapacity(pn.DefaultCacheCapacity),
		pn.WithRegistryObserver(r.obs), pn.WithArtifactDir(r.dir))
	if err := r.register(ctx, mcGraph.Name); err != nil {
		return err
	}
	_, err := r.reg.Local(ctx, mcGraph.Name, pn.LocalRequest{Theta: mcTheta, Mode: pn.ModeDP})
	return err
}

// --- sweep-flickr: the θ-sweep user ---

var sweepGraph = graphSpec{Name: "flickr", Scale: 0.025}

// setupSweep prepares the graph once on a one-shard engine with all cores
// as workers and saves the prepared artifact, as `nudecomp -theta a,b,c
// -save` does.
func setupSweep(ctx context.Context, r *run) error {
	if err := r.generate([]graphSpec{sweepGraph}, 1); err != nil {
		return err
	}
	r.eng, r.shards = pn.NewEngine(1, 0, pn.WithObserver(r.obs)), 1
	text := r.texts[sweepGraph.Name][0]
	pg, err := r.parse(0, 0, text)
	if err != nil {
		return err
	}
	if r.pre, err = r.eng.Prepare(ctx, pg); err != nil {
		return err
	}
	t0 := time.Now()
	n, err := pn.SaveArtifact(filepath.Join(r.dir, sweepGraph.Name+".v1.pna"), r.pre)
	if err != nil {
		return err
	}
	r.note("save_ms", msSince(t0))
	r.note("save_bytes", float64(n))
	r.sizes[sweepGraph.Name] = inputSize{Vertices: pg.NumVertices(), Edges: pg.NumEdges(),
		Triangles: r.pre.Triangles(), Bytes: len(text)}
	return nil
}

// closedLoop returns a one-client closed loop over a schedule: the first
// warmN requests run untimed, so shard arenas and caches fill; the rest run
// back to back until the timed phase ends.
func closedLoop(warmN int, schedule func(*run) []request) func(context.Context, *run, time.Duration, time.Duration, func()) time.Duration {
	return func(ctx context.Context, r *run, _, timed time.Duration, mark func()) time.Duration {
		reqs := schedule(r)
		for _, q := range reqs[:warmN] {
			r.exec(ctx, q, time.Time{}, false)
		}
		mark()
		start := time.Now()
		for _, q := range reqs[warmN:] {
			if time.Since(start) >= timed {
				break
			}
			r.exec(ctx, q, time.Time{}, true)
		}
		return time.Since(start)
	}
}

// --- serve-mix: server traffic ---

var serveGraphs = []graphSpec{{Name: "krogan", Scale: 0.04}, {Name: "dblp", Scale: 0.04}}

// mix is the served traffic: mostly local queries on a skewed θ grid, so
// that most hit the cache, plus weak and global queries and graph
// replacements. Weak, global and put requests each go to one graph, so their
// medians do not sit between two graphs' latencies. The rate is about a
// third of the measured capacity: at half of it, whether a put or a query
// finds a free shard decides its latency, and the medians drift from run to
// run (README.md, "Offered load").
var mix = serveMix{
	Rate:   40,
	PLocal: 0.80, PWeak: 0.05, PGlobal: 0.05,
	LocalGraph:  []string{"krogan", "dblp"},
	WeakGraph:   "dblp",
	GlobGraph:   "krogan",
	PutGraph:    "dblp",
	NucleiTh:    0.3,
	LocalTheta:  []float64{0.1, 0.2, 0.3, 0.5},
	LocalWeight: []float64{0.5, 0.25, 0.15, 0.10},
}

const serveTimeout = 10 * time.Second

// setupServe builds the engine and registry the way engine-server does by
// default (2 shards × all cores, queue 64, default cache, metrics observer,
// artifact directory) and registers both graphs. The graph that puts
// replace gets its put variants as well.
func setupServe(ctx context.Context, r *run) error {
	for _, g := range serveGraphs {
		n := 1
		if g.Name == mix.PutGraph {
			n += putVariants
		}
		if err := r.generate([]graphSpec{g}, n); err != nil {
			return err
		}
	}
	r.eng, r.shards = pn.NewEngine(2, 0, pn.WithMaxQueue(64), pn.WithObserver(r.obs)), 2
	r.reg = pn.NewRegistry(r.eng, pn.WithCacheCapacity(pn.DefaultCacheCapacity),
		pn.WithRegistryObserver(r.obs), pn.WithArtifactDir(r.dir))
	for _, g := range serveGraphs {
		if err := r.register(ctx, g.Name); err != nil {
			return err
		}
	}
	return nil
}

// openLoop sends the seeded Poisson schedule on time, whatever the program's
// state, each request on its own goroutine with the server's timeout.
// Requests due in the warm-up are not timed. Latency counts from each
// request's due time, so a stall also delays every request due during it.
func openLoop(ctx context.Context, r *run, warm, timed time.Duration, mark func()) time.Duration {
	reqs := serveSchedule(r.seed, mix, warm+timed)
	var wg sync.WaitGroup
	t0 := time.Now()
	var late []float64
	for _, q := range reqs {
		due := t0.Add(q.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		isTimed := q.Due >= warm
		if isTimed {
			if late == nil {
				mark()
			}
			late = append(late, msSince(due))
		}
		wg.Add(1)
		go func(q request) {
			defer wg.Done()
			qctx, cancel := context.WithTimeout(ctx, serveTimeout)
			defer cancel()
			r.exec(qctx, q, due, isTimed)
		}(q)
	}
	wg.Wait()
	r.mu.Lock()
	r.calls["lateness_ms"] = late
	r.mu.Unlock()
	// The timed phase ends when its last request completes, or at its
	// nominal end if that comes later.
	end := t0.Add(warm + timed)
	for _, o := range r.outs {
		if o.timed && o.end.After(end) {
			end = o.end
		}
	}
	return end.Sub(t0.Add(warm))
}

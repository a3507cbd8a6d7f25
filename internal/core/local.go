// Package core implements the paper's contribution: nucleus decomposition
// in probabilistic graphs, in its three semantics.
//
//   - Local (ℓ-NuDecomp, Sec. 5): polynomial-time triangle peeling where each
//     triangle's probabilistic 4-clique support is evaluated by the exact
//     Poisson-binomial dynamic program (DP) or by the statistical
//     approximation framework (AP) of Sec. 5.3.
//   - Global (g-NuDecomp, Algorithm 2): #P-hard; approximated by pruning with
//     the local decomposition and Monte-Carlo sampling of possible worlds.
//   - Weakly-global (w-NuDecomp, Algorithm 3): NP-hard; approximated by
//     per-world deterministic nucleus decomposition over Monte-Carlo samples.
package core

import (
	"context"
	"slices"

	"probnucleus/internal/bucket"
	"probnucleus/internal/decomp"
	"probnucleus/internal/graph"
	"probnucleus/internal/obs"
	"probnucleus/internal/par"
	"probnucleus/internal/pbd"
	"probnucleus/internal/probgraph"
)

// Mode selects the support-evaluation strategy for the local decomposition.
type Mode int

const (
	// ModeDP evaluates every support query with the exact dynamic program
	// (Eq. 7), maintained incrementally across peeling steps.
	ModeDP Mode = iota
	// ModeAP evaluates support queries with the statistical approximation
	// selected by the Sec. 5.3 rule chain, falling back to DP when no
	// approximation's applicability condition holds.
	ModeAP
)

// Options configures LocalDecompose.
type Options struct {
	Mode  Mode
	Hyper pbd.Hyper // approximation hyperparameters; zero value → pbd.DefaultHyper
	// MethodCounts, when non-nil, accumulates how many support queries each
	// approximation method answered (AP instrumentation for the paper's
	// accuracy discussion).
	MethodCounts map[pbd.Method]int
	// Workers bounds the worker pool used for triangle enumeration and
	// support-tail scoring: 0 (the default) means runtime.GOMAXPROCS, 1 runs
	// fully serial. Results are byte-identical for every value — parallel
	// stages only ever write per-triangle slots and all queue mutations are
	// applied in a fixed order.
	Workers int
	// Pool, when non-nil, is a caller-owned worker pool to run on instead of
	// spawning one per call; it overrides Workers and stays open afterwards.
	// Servers running many small decompositions share one pool across the
	// local, global, and weak phases (an Engine shard does exactly that).
	Pool *par.Pool
	// Obs, when non-nil, receives kernel progress events (peel rounds); it is
	// engine plumbing, set by Engine.Local from WithObserver. A nil observer
	// adds zero allocations to the decomposition path.
	Obs obs.Observer
}

// pool resolves the worker pool to run on: the caller-owned one when set, or
// a fresh pool (owned reports true) the caller of pool() must close.
func (o Options) pool() (p *par.Pool, owned bool) {
	if o.Pool != nil {
		return o.Pool, false
	}
	return par.NewPool(o.Workers), true
}

// rescoreParallelCutoff is the minimum number of affected triangles for
// which a peeling step fans its re-scoring out to the worker pool; below it
// the pool overhead outweighs the scoring work.
const rescoreParallelCutoff = 16

// scoreScratch is the per-worker reusable state of the scoring hot path: a
// staging buffer for live clique probabilities (AP mode) and the DP pmf
// buffer, so no support query allocates.
type scoreScratch struct {
	probs []float64
	dp    pbd.Scratch
}

// LocalResult is the outcome of ℓ-NuDecomp: the triangle index of the graph
// and the θ-nucleusness ν(△) of every triangle — the largest k such that △
// belongs to an ℓ-(k,θ)-nucleus. Triangles whose own existence probability
// is below θ cannot belong to any nucleus and get ν = −1.
type LocalResult struct {
	PG          *probgraph.Graph
	TI          *graph.TriangleIndex
	Theta       float64
	Nucleusness []int
}

// LocalDecompose runs Algorithm 1 (ℓ-NuDecomp) on pg with threshold θ.
//
// Support queries are answered from one incrementally-maintained
// Poisson-binomial distribution per triangle (pbd.Dist): when a peeling step
// kills a 4-clique, its Bernoulli factor is deconvolved out of each affected
// triangle's pmf in O(k) instead of reconvolving all surviving cliques in
// O(c·k), and the Dist's stability guard rebuilds from scratch whenever that
// could change an answer — so the output is byte-identical to the
// from-scratch scorer.
//
// With no caller-owned Options.Pool, the call is a thin wrapper over a
// one-shot one-shard Engine, so the package-level path and the served path
// run the identical kernel.
func LocalDecompose(pg *probgraph.Graph, theta float64, opts Options) (*LocalResult, error) {
	if opts.Pool != nil {
		// Validate θ before paying for triangle enumeration, matching the
		// kernel's own fail-fast order.
		if !(theta > 0 && theta <= 1) {
			return nil, errTheta(theta)
		}
		pre, err := newPrepared(pg, opts.Pool, opts.Obs)
		if err != nil {
			return nil, err
		}
		return localDecompose(pre, theta, opts)
	}
	req := localRequest(theta, opts)
	if err := req.Validate(); err != nil {
		return nil, err // fail fast: no worker team for a malformed request
	}
	e := NewEngine(1, opts.Workers)
	defer e.Close()
	return e.Local(context.Background(), pg, req)
}

// localRequest lifts θ plus the per-query fields of o into the request
// struct the Engine serves — the bridge the thin package-level wrapper
// crosses.
func localRequest(theta float64, o Options) LocalRequest {
	return LocalRequest{
		Theta:        theta,
		Mode:         o.Mode,
		Hyper:        o.Hyper,
		MethodCounts: o.MethodCounts,
	}
}

// localDecompose is the execute stage of the LocalDecompose kernel: it
// consumes a prepared artifact — never enumerating triangles itself — and
// requires opts.Pool, running entirely on it. The artifact is only read, so
// concurrent calls sharing one Prepared are safe. Cancellation of the pool's
// bound context is observed between pool chunks and at every peeling step,
// returning ctx.Err().
func localDecompose(pre *Prepared, theta float64, opts Options) (*LocalResult, error) {
	if !(theta > 0 && theta <= 1) {
		return nil, errTheta(theta)
	}
	if opts.Hyper == (pbd.Hyper{}) {
		opts.Hyper = pbd.DefaultHyper
	}
	pg, ti := pre.pg, pre.ti
	pool := opts.Pool
	workers := pool.Workers()
	ca := decomp.NewCliqueAdjFromIndex(ti)
	n := ti.Len()

	// Per-triangle existence probability Pr(△) and the support distribution
	// over its 4-clique factors Pr(E_z) = p(u,z)·p(v,z)·p(w,z) (Sec. 5.1),
	// held as an incrementally-maintained Poisson binomial whose slot order
	// matches the completion order of ti.Comps[t]. Each slot is written by
	// exactly one worker.
	triProb := make([]float64, n)
	dists := make([]pbd.Dist, n)
	// Factor probabilities and pmf buffers live in two flat arenas sliced
	// per triangle (the truncation bound never exceeds the live factor
	// count, so a pmf span of the completion count never reallocates).
	off := make([]int, n+1)
	for t := 0; t < n; t++ {
		off[t+1] = off[t] + len(ti.Comps[t])
	}
	psFlat := make([]float64, off[n])
	pmfFlat := make([]float64, off[n])
	pool.For(n, func(t int) {
		tri := ti.Tris[t]
		triProb[t] = pg.TriangleProb(tri)
		ps := psFlat[off[t]:off[t]:off[t+1]]
		for _, z := range ti.Comps[t] {
			ps = append(ps, pg.Prob(tri.A, z)*pg.Prob(tri.B, z)*pg.Prob(tri.C, z))
		}
		dists[t].InitBuffered(ps, pmfFlat[off[t]:off[t]:off[t+1]])
	})
	if err := pool.Err(); err != nil {
		return nil, err
	}

	nu := make([]int, n)
	scr := make([]scoreScratch, workers)

	// Score evaluates max{k : Pr(△)·Pr[ζ ≥ k] ≥ θ} over the live cliques of
	// triangle t. It touches only triangle t's distribution and the caller's
	// scratch, so concurrent calls for distinct triangles with distinct
	// scratches are safe; method tallies are applied by the caller.
	//
	// In AP mode the Sec. 5.3 method selection reads the Dist's maintained
	// µ/σ²/max-p aggregates (amortized O(1), bit-compatible with rescanning
	// the live factors), the closed-form tails evaluate from those same
	// aggregates (Dist.MaxKClosed — no per-query pack of the live factor
	// slice), and the DP fallback answers from the incrementally-maintained
	// pmf instead of re-running the from-scratch dynamic program.
	score := func(t int32, sc *scoreScratch) (int, pbd.Method) {
		thr := theta / triProb[t]
		if opts.Mode == ModeAP {
			m := dists[t].Choose(opts.Hyper)
			if m == pbd.MethodDP {
				return dists[t].MaxK(thr), pbd.MethodDP
			}
			return dists[t].MaxKClosed(thr, m), m
		}
		return dists[t].MaxK(thr), pbd.MethodDP
	}
	tally := func(m pbd.Method) {
		if opts.MethodCounts != nil {
			opts.MethodCounts[m]++
		}
	}

	// Phase 0: triangles with Pr(△) < θ can belong to no nucleus (even
	// k = 0 requires the triangle itself to exist with probability ≥ θ).
	// Remove them up front; their cliques disappear for everyone else.
	drop := func(o int32, slot int) { dists[o].RemoveFactor(slot) }
	for t := int32(0); int(t) < n; t++ {
		if triProb[t] < theta {
			nu[t] = -1
			ca.RemoveTriangle(t, drop)
		}
	}

	// Phase 1: initial κ scores for the surviving triangles, evaluated in
	// parallel (every support query is independent) and pushed serially in
	// ascending id order so the queue layout matches the serial run.
	initK := make([]int, n)
	initM := make([]pbd.Method, n)
	pool.ForWorker(n, func(w, idx int) {
		t := int32(idx)
		if nu[t] == -1 {
			return
		}
		initK[t], initM[t] = score(t, &scr[w])
	})
	if err := pool.Err(); err != nil {
		return nil, err
	}
	q := bucket.New(n, maxAliveCount(ca))
	for t := int32(0); int(t) < n; t++ {
		if nu[t] == -1 {
			continue
		}
		tally(initM[t])
		q.Push(t, initK[t])
	}

	// Phase 2: peel (Algorithm 1). Pop a minimum-κ triangle, fix its
	// nucleusness, and re-score the live triangles that shared a 4-clique
	// with it. The affected set is deduplicated with a stamp array and
	// processed in sorted id order — and its scores may be computed by the
	// worker pool, since all clique removals happen before any re-score — so
	// queue updates land in a deterministic order for every worker count.
	floor := 0
	stamp := make([]int32, n) // last peel round that queued the triangle
	round := int32(0)
	var todo []int32
	var nks []int
	var nms []pbd.Method
	for q.Len() > 0 {
		// One cancellation check per peeling step: cheap next to the
		// re-scoring it gates, and it bounds a cancelled call's overrun by a
		// single step.
		if err := pool.Err(); err != nil {
			return nil, err
		}
		t, k, _ := q.Pop()
		if k > floor {
			floor = k
		}
		nu[t] = floor
		round++
		todo = todo[:0]
		ca.RemoveTriangle(t, func(o int32, slot int) {
			if q.Key(o) <= floor {
				// Keys never rise and floor never falls, so o can never be
				// re-scored again; skipping the deconvolution is safe and its
				// distribution is simply never read after this point.
				return
			}
			dists[o].RemoveFactor(slot)
			if stamp[o] != round {
				stamp[o] = round
				todo = append(todo, o)
			}
		})
		slices.Sort(todo)
		if cap(nks) < len(todo) {
			nks = make([]int, len(todo))
			nms = make([]pbd.Method, len(todo))
		}
		nks = nks[:len(todo)]
		nms = nms[:len(todo)]
		if workers > 1 && len(todo) >= rescoreParallelCutoff {
			pool.ForWorker(len(todo), func(w, i int) {
				nks[i], nms[i] = score(todo[i], &scr[w])
			})
		} else {
			for i, o := range todo {
				nks[i], nms[i] = score(o, &scr[0])
			}
		}
		for i, o := range todo {
			tally(nms[i])
			nk := nks[i]
			if nk < floor {
				nk = floor
			}
			if nk < q.Key(o) {
				q.Update(o, nk)
			}
		}
		if opts.Obs != nil {
			opts.Obs.PeelRound(len(todo))
		}
	}
	return &LocalResult{PG: pg, TI: ti, Theta: theta, Nucleusness: nu}, nil
}

func maxAliveCount(ca *decomp.CliqueAdj) int {
	max := 0
	for t := 0; t < ca.Len(); t++ {
		if ca.AliveCount[t] > max {
			max = ca.AliveCount[t]
		}
	}
	return max
}

// MaxNucleusness returns the largest ν value in the result (0 for a graph
// with no qualifying triangles).
func (r *LocalResult) MaxNucleusness() int {
	max := 0
	for _, v := range r.Nucleusness {
		if v > max {
			max = v
		}
	}
	return max
}

// NucleiForK assembles the ℓ-(k,θ)-nuclei: maximal unions of 4-cliques whose
// triangles all have ν ≥ k, split into 4-clique-connected components.
func (r *LocalResult) NucleiForK(k int) []decomp.Nucleus {
	return decomp.KNuclei(r.TI, r.Nucleusness, k)
}

// InitialKappa computes, without any peeling, the initial κ score of every
// triangle: max{k : Pr(X_{G,△,ℓ} ≥ k) ≥ θ} over the whole graph (Sec. 5.1).
// This is the quantity the exact enumeration oracle can validate directly.
func InitialKappa(pg *probgraph.Graph, theta float64, opts Options) (*graph.TriangleIndex, []int, error) {
	if !(theta > 0 && theta <= 1) {
		return nil, nil, errTheta(theta)
	}
	if opts.Hyper == (pbd.Hyper{}) {
		opts.Hyper = pbd.DefaultHyper
	}
	pool, owned := opts.pool()
	if owned {
		defer pool.Close()
	}
	workers := pool.Workers()
	ti := graph.NewTriangleIndexPool(pg.G, pool)
	kappa := make([]int, ti.Len())
	methods := make([]pbd.Method, ti.Len())
	scr := make([]scoreScratch, workers)
	pool.ForWorker(ti.Len(), func(w, t int) {
		sc := &scr[w]
		tri := ti.Tris[t]
		pTri := pg.TriangleProb(tri)
		probs := sc.probs[:0]
		for _, z := range ti.Comps[t] {
			probs = append(probs, pg.Prob(tri.A, z)*pg.Prob(tri.B, z)*pg.Prob(tri.C, z))
		}
		sc.probs = probs
		thr := theta / pTri
		if opts.Mode == ModeAP {
			kappa[t], methods[t] = pbd.ApproxMaxKScratch(probs, thr, opts.Hyper, &sc.dp)
		} else {
			kappa[t], methods[t] = pbd.MaxKScratch(probs, thr, &sc.dp), pbd.MethodDP
		}
	})
	if opts.MethodCounts != nil && opts.Mode == ModeAP {
		for _, m := range methods {
			opts.MethodCounts[m]++
		}
	}
	return ti, kappa, nil
}

// NucleusnessOf returns ν(△) for a canonical triangle, or -1 when the
// triangle is not part of the graph.
func (r *LocalResult) NucleusnessOf(tri graph.Triangle) int {
	id, ok := r.TI.ID(tri)
	if !ok {
		return -1
	}
	return r.Nucleusness[id]
}

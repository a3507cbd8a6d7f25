package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"probnucleus/internal/decomp"
	"probnucleus/internal/graph"
	"probnucleus/internal/mc"
	"probnucleus/internal/obs"
	"probnucleus/internal/par"
	"probnucleus/internal/probgraph"
)

// MCOptions configures the Monte-Carlo estimation of the global and
// weakly-global algorithms. The number of sampled worlds is Samples when
// positive, otherwise the Hoeffding bound ⌈ln(2/δ)/(2ε²)⌉ from Eps/Delta
// (Lemma 4).
type MCOptions struct {
	Eps     float64
	Delta   float64
	Samples int
	Seed    int64
	// Local supplies a precomputed exact local decomposition at the same θ
	// to prune the search space; when nil it is computed internally.
	Local *LocalResult
	// Prepared, when non-nil and Local is nil, supplies the prepare-stage
	// artifact the internal local decomposition runs from, skipping triangle
	// enumeration. It is engine plumbing, set by the *Prepared request
	// variants; ignored when Local is set (the LocalResult already embeds
	// its index).
	Prepared *Prepared
	// Window, when positive and smaller than the sample count, streams the
	// shared world-mask bank through fixed-size windows of that many worlds
	// instead of materializing all n×⌈|E∪|/64⌉ mask words at once: peak bank
	// memory is bounded by Window×words, each window is scanned against every
	// candidate not yet rejected, with per-triangle totals carried between
	// windows, and the results are byte-identical to a one-window run (the
	// windowed draw replays the identical PRNG streams; see
	// mc.Bank.WorldMasksWindow). Zero (the default) or a value ≥ the sample
	// count draws the full bank in one window.
	Window int
	// MemBudget, when positive and Window is zero, sizes the window
	// adaptively from a peak world-bank byte budget instead of a fixed world
	// count: the window becomes ⌊MemBudget / (⌈|E∪|/64⌉×8)⌋ worlds, clamped
	// to at least one world, so the bank's peak allocation stays within the
	// budget whenever a single world's mask row fits in it. An explicit
	// Window wins over MemBudget; results are byte-identical either way.
	MemBudget int64
	// Workers bounds the worker pool for possible-world sampling and
	// per-world evaluation: 0 (the default) means runtime.GOMAXPROCS, 1 runs
	// fully serial. Worlds are drawn from chunk-derived PRNGs (see package
	// mc), so results depend only on Seed, never on the worker count.
	Workers int
	// Pool, when non-nil, is a caller-owned worker pool to run on instead of
	// spawning one per call; it overrides Workers and stays open afterwards.
	// The same pool serves the internal LocalDecompose pruning phase and the
	// per-candidate Monte-Carlo validation.
	Pool *par.Pool
	// Bank, when non-nil, supplies the reusable backing the shared world-
	// mask bank is drawn into, so repeated calls at the same (ε,δ) sample
	// without allocating. It is shard plumbing and is consumed only together
	// with Pool (the Engine sets both); with a nil Pool the call routes
	// through a one-shot engine shard that owns its own bank and Bank is
	// ignored. Leave nil outside engine internals; a private bank is used.
	Bank *mc.Bank
	// Obs, when non-nil, receives kernel progress events (shared world
	// batches, candidate validations); it is engine plumbing, set by
	// Engine.Global/Weak from WithObserver. A nil observer adds zero
	// allocations to the decomposition path.
	Obs obs.Observer
}

func (o MCOptions) sampleCount() int {
	if o.Samples > 0 {
		return o.Samples
	}
	eps, delta := o.Eps, o.Delta
	if eps == 0 {
		eps = 0.1
	}
	if delta == 0 {
		delta = 0.1
	}
	return mc.SampleSize(eps, delta)
}

// validateSampleSpec checks the Monte-Carlo sample specification: Samples
// must be non-negative, and when it is zero each of Eps/Delta must be either
// zero (defaulted to 0.1) or inside (0,1] — the domain of the Hoeffding
// bound. It is the error-returning counterpart of the panic in
// mc.SampleSize, shared by NucleiRequest.Validate and the package-level
// entry points.
func (o MCOptions) validateSampleSpec() error {
	if o.Samples < 0 {
		return fmt.Errorf("core: samples = %d: %w", o.Samples, ErrBadSampleSpec)
	}
	if o.Window < 0 {
		return fmt.Errorf("core: window = %d: %w", o.Window, ErrBadSampleSpec)
	}
	if o.MemBudget < 0 {
		return fmt.Errorf("core: membudget = %d: %w", o.MemBudget, ErrBadSampleSpec)
	}
	if o.Samples == 0 {
		if o.Eps != 0 && !(o.Eps > 0 && o.Eps <= 1) {
			return fmt.Errorf("core: eps = %v: %w", o.Eps, ErrBadSampleSpec)
		}
		if o.Delta != 0 && !(o.Delta > 0 && o.Delta <= 1) {
			return fmt.Errorf("core: delta = %v: %w", o.Delta, ErrBadSampleSpec)
		}
	}
	return nil
}

// windowSize resolves the world window the shared bank streams through for a
// run of n worlds over unionEdges union edges: an explicit Window when
// positive, otherwise a window derived from the MemBudget byte budget (one
// world's mask row is ⌈unionEdges/64⌉×8 bytes; the window is however many
// rows the budget holds, but never fewer than one), otherwise — and whenever
// the resolved window exceeds n — the full bank in one window.
func (o MCOptions) windowSize(n, unionEdges int) int {
	window := o.Window
	if window == 0 && o.MemBudget > 0 {
		words := int64(unionEdges+63) / 64
		if words < 1 {
			words = 1
		}
		w := o.MemBudget / (words * 8)
		window = 1
		if w > int64(n) {
			window = n
		} else if w > 1 {
			window = int(w)
		}
	}
	if window <= 0 || window > n {
		window = n
	}
	return window
}

// worldBank resolves the reusable bank the shared world stream is drawn
// into: the caller-owned one when set (the Engine pre-wires its tap to the
// engine observer), or a private per-call bank tapped here so world batches
// stay observable on the one-shot path too.
func (o MCOptions) worldBank() *mc.Bank {
	if o.Bank != nil {
		return o.Bank
	}
	b := new(mc.Bank)
	if o.Obs != nil {
		b.Tap = o.Obs.WorldBatch
	}
	return b
}

// localResult resolves the pruning local decomposition the global and weak
// kernels run from: the caller-supplied one when set, otherwise an exact DP
// decomposition computed on the kernel's pool — from the prepared artifact
// when one was supplied (no enumeration), from scratch when not.
func (o MCOptions) localResult(pg *probgraph.Graph, theta float64) (*LocalResult, error) {
	if o.Local != nil {
		return o.Local, nil
	}
	lopts := Options{Mode: ModeDP, Pool: o.Pool, Obs: o.Obs}
	if o.Prepared != nil {
		return localDecompose(o.Prepared, theta, lopts)
	}
	return LocalDecompose(pg, theta, lopts)
}

// nucleiRequest lifts (k, θ) plus the sampling knobs of o into the request
// struct the Engine serves — the bridge the thin package-level wrappers
// cross.
func nucleiRequest(k int, theta float64, o MCOptions) NucleiRequest {
	return NucleiRequest{
		K:         k,
		Theta:     theta,
		Eps:       o.Eps,
		Delta:     o.Delta,
		Samples:   o.Samples,
		Seed:      o.Seed,
		Window:    o.Window,
		MemBudget: o.MemBudget,
		Local:     o.Local,
	}
}

// ProbNucleus is one probabilistic (k,θ)-nucleus produced by the global or
// weakly-global algorithm: the triangles it consists of, the subgraph they
// span, and the Monte-Carlo estimate of min_△ Pr(X ≥ k).
type ProbNucleus struct {
	K         int
	Theta     float64
	Triangles []graph.Triangle
	Vertices  []int32
	Edges     []graph.Edge
	// MinProb is the smallest estimated Pr̂(X_{H,△} ≥ k) over the nucleus's
	// triangles (≥ θ by construction).
	MinProb float64
}

// GlobalNuclei implements Algorithm 2: it finds the g-(k,θ)-nuclei of pg.
// Candidates are grown inside the union C of ℓ-(k,θ)-nuclei as 4-clique
// closures seeded at each triangle of C, then validated against a shared
// Monte-Carlo world stream, requiring Pr̂(X_{H,△,g} ≥ k) ≥ θ for every
// triangle.
//
// The n possible worlds are sampled once per call over the edge set of the
// whole candidate space C and shared by every candidate: world i is
// restricted to each candidate through a stackable view of the parent
// triangle index, so overlapping candidates — the common case, since
// closures grow from every seed triangle of C — never pay for resampling.
// Per candidate the marginal world distribution is unchanged (edges are
// kept independently with their probabilities either way), so each estimate
// keeps its (ε,δ) guarantee; only the PRNG stream assignment differs from
// the per-candidate sampler, which is why the golden snapshot was
// deliberately regenerated when the shared stream landed.
//
// The per-seed pipeline is allocation-lean: candidate growth runs on stamp
// arrays over a CSR clique layout, candidate subgraphs are assembled from a
// sorted scratch edge slice, deduplication hashes sorted triangle-id sets,
// and each world is checked against a reusable restriction of the parent
// triangle index instead of a per-world rebuild.
//
// With no caller-owned MCOptions.Pool, the call is a thin wrapper over a
// one-shot one-shard Engine, so the package-level path and the served path
// run the identical kernel.
func GlobalNuclei(pg *probgraph.Graph, k int, theta float64, opts MCOptions) ([]ProbNucleus, error) {
	if opts.Pool != nil {
		out, _, err := globalNuclei(pg, k, theta, opts)
		return out, err
	}
	req := nucleiRequest(k, theta, opts)
	if err := req.Validate(); err != nil {
		return nil, err // fail fast: no worker team for a malformed request
	}
	e := NewEngine(1, opts.Workers)
	defer e.Close()
	return e.Global(context.Background(), pg, req)
}

// globalNuclei is the GlobalNuclei kernel; it requires opts.Pool and runs
// entirely on it. Besides the nuclei it reports how many candidates were
// rejected while worlds were still to come (the kernel's saved scans).
// Cancellation of the pool's bound context is observed between pool chunks,
// between Monte-Carlo world batches, and at every candidate, returning
// ctx.Err().
func globalNuclei(pg *probgraph.Graph, k int, theta float64, opts MCOptions) ([]ProbNucleus, int, error) {
	if k < 0 {
		return nil, 0, errNegativeK(k)
	}
	if err := opts.validateSampleSpec(); err != nil {
		return nil, 0, err
	}
	pool := opts.Pool
	local, err := opts.localResult(pg, theta)
	if err != nil {
		return nil, 0, err
	}

	// C: union of ℓ-(k,θ)-nuclei, with its level-k clique structure.
	cand := newCandidateSpace(local, k)
	if len(cand.triangles) == 0 {
		return nil, 0, nil
	}
	// Candidates: the deduplicated closures, grown once and kept in seen's
	// arena in seed order.
	var seen triSetDedup
	for _, seed := range cand.triangles {
		if err := pool.Err(); err != nil {
			return nil, 0, err
		}
		closure := cand.closure(seed, k)
		if seen.insert(closure) && opts.Obs != nil {
			opts.Obs.Candidate(len(closure))
		}
	}
	// One shared world stream over the union of all candidate edges (every
	// candidate is a subgraph of it), sampled as a flat bank of edge bitmasks
	// and streamed window by window — one window of all n worlds by default,
	// fixed-size windows when opts.Window or opts.MemBudget bounds the bank's
	// peak memory. Every window is scanned against every live candidate; a
	// candidate is dropped as soon as one of its triangles can no longer
	// reach ⌈θ·n⌉ qualifying worlds (see globalEstimator.scan), which only
	// ever fails candidates the full scan would fail. Per-triangle counts are
	// integer sums carried into later windows, so verdicts and MinProb are
	// byte-identical for every window cut; a one-window run carries nothing.
	union := appendTriangleEdges(nil, cand.ti, cand.triangles)
	n := opts.sampleCount()
	window := opts.windowSize(n, len(union))
	upg := pg.SubgraphOfEdges(union)
	bank := opts.worldBank()
	est := newGlobalEstimator(pool, cand.ti, pg.NumVertices(), union, n, theta)
	live := make([]int32, seen.len())
	for c := range live {
		live[c] = int32(c)
	}
	// totals[totOff[c]:]: candidate c's carried per-triangle counts, laid
	// out on the first window of a multi-window run.
	var totOff, totals []int32
	var edges []graph.Edge
	var out []ProbNucleus
	early := 0
	for lo := 0; lo < n && len(live) > 0; lo += window {
		hi := min(lo+window, n)
		masks, _ := bank.WorldMasksWindow(pool, upg, n, lo, hi, opts.Seed)
		if err := pool.Err(); err != nil {
			return nil, 0, err
		}
		est.setWindow(masks, hi-lo)
		kept := live[:0]
		for _, c := range live {
			if err := pool.Err(); err != nil {
				return nil, 0, err
			}
			closure := seen.set(c)
			edges = appendTriangleEdges(edges[:0], cand.ti, closure)
			h := graph.FromSortedEdges(pg.NumVertices(), edges)
			m := est.seedCandidate(h, edges, cand.ti, k)
			var tot []int32
			if window < n {
				if lo == 0 {
					totOff = append(totOff, int32(len(totals)))
					totals = append(totals, make([]int32, m)...)
				}
				tot = totals[totOff[c] : int(totOff[c])+m]
			}
			minProb, ok := est.scan(tot, n-hi)
			switch {
			case !ok && hi < n:
				early++
			case ok && hi < n:
				kept = append(kept, c)
			case ok:
				out = append(out, buildProbNucleus(cand.ti, closure, k, theta, minProb))
			}
		}
		live = kept
	}
	// The last candidate may have been scanned against a half-filled world
	// batch; one final check keeps cancelled calls from returning it.
	if err := pool.Err(); err != nil {
		return nil, 0, err
	}
	sortNuclei(out)
	return out, early, nil
}

// candidateSpace is the union C of ℓ-(k,θ)-nuclei viewed as a set of
// triangles plus the 4-cliques among them whose triangles all reach level k.
// Cliques are enumerated once and assigned dense ids; per-triangle clique
// membership is laid out CSR-style, and closure growth runs on generation-
// stamped scratch arrays — so growing a candidate allocates nothing beyond
// the first seed.
type candidateSpace struct {
	ti *graph.TriangleIndex
	nu []int
	// triangles lists the triangle ids of C (level ≥ k with at least one
	// level-k clique), in increasing order.
	triangles []int32
	// cliques holds every level-k 4-clique once, as the ids of its four
	// triangles; cliqueIDs[cliqueOff[t]:cliqueOff[t+1]] are the cliques
	// containing triangle t, in enumeration order.
	cliques   [][4]int32
	cliqueOff []int32
	cliqueIDs []int32
	// closure scratch: triStamp/clStamp mark membership in the current
	// generation, inCliques counts a member triangle's cliques inside the
	// candidate, members/queue back the growth worklist.
	gen       int32
	triStamp  []int32
	clStamp   []int32
	inCliques []int32
	members   []int32
	queue     []int32
}

func newCandidateSpace(local *LocalResult, k int) *candidateSpace {
	ti, nu := local.TI, local.Nucleusness
	n := ti.Len()
	cs := &candidateSpace{ti: ti, nu: nu}
	for t := int32(0); int(t) < n; t++ {
		if nu[t] < k {
			continue
		}
		tri := ti.Tris[t]
		for _, z := range ti.Comps[t] {
			if z <= tri.C {
				continue // enumerate each clique once (z is the max vertex)
			}
			ids, ok := cliqueIDsAtLevel(ti, nu, tri, z, k)
			if !ok {
				continue
			}
			cs.cliques = append(cs.cliques, [4]int32{t, ids[0], ids[1], ids[2]})
		}
	}
	cs.cliqueOff = make([]int32, n+1)
	for _, cl := range cs.cliques {
		for _, id := range cl {
			cs.cliqueOff[id+1]++
		}
	}
	for t := 0; t < n; t++ {
		cs.cliqueOff[t+1] += cs.cliqueOff[t]
	}
	cs.cliqueIDs = make([]int32, cs.cliqueOff[n])
	fill := make([]int32, n)
	for ci, cl := range cs.cliques {
		for _, id := range cl {
			cs.cliqueIDs[cs.cliqueOff[id]+fill[id]] = int32(ci)
			fill[id]++
		}
	}
	for t := int32(0); int(t) < n; t++ {
		if nu[t] >= k && cs.cliqueOff[t+1] > cs.cliqueOff[t] {
			cs.triangles = append(cs.triangles, t)
		}
	}
	cs.triStamp = make([]int32, n)
	cs.clStamp = make([]int32, len(cs.cliques))
	cs.inCliques = make([]int32, n)
	return cs
}

func cliqueIDsAtLevel(ti *graph.TriangleIndex, nu []int, tri graph.Triangle, z int32, k int) ([3]int32, bool) {
	var ids [3]int32
	for i, o := range [3]graph.Triangle{
		graph.MakeTriangle(tri.A, tri.B, z),
		graph.MakeTriangle(tri.A, tri.C, z),
		graph.MakeTriangle(tri.B, tri.C, z),
	} {
		id, ok := ti.ID(o)
		if !ok || nu[id] < k {
			return ids, false
		}
		ids[i] = id
	}
	return ids, true
}

func (cs *candidateSpace) cliquesOf(t int32) []int32 {
	return cs.cliqueIDs[cs.cliqueOff[t]:cs.cliqueOff[t+1]]
}

// addClique admits clique ci into the current candidate generation, stamping
// its four triangles as members and bumping their inside-clique counts. New
// members are appended to both worklists, which are returned grown.
func (cs *candidateSpace) addClique(ci, gen int32, members, queue []int32) ([]int32, []int32) {
	if cs.clStamp[ci] == gen {
		return members, queue
	}
	cs.clStamp[ci] = gen
	for _, id := range cs.cliques[ci] {
		if cs.triStamp[id] != gen {
			cs.triStamp[id] = gen
			cs.inCliques[id] = 0
			members = append(members, id)
			queue = append(queue, id)
		}
		cs.inCliques[id]++
	}
	return members, queue
}

// closure grows the candidate of Algorithm 2 lines 5-7: start with the
// cliques containing the seed, then repeatedly add cliques of C containing
// any member triangle that has fewer than k cliques inside the candidate.
// The returned sorted id slice aliases the scratch and is valid until the
// next closure call.
func (cs *candidateSpace) closure(seed int32, k int) []int32 {
	cs.gen++
	gen := cs.gen
	members, queue := cs.members[:0], cs.queue[:0]
	for _, ci := range cs.cliquesOf(seed) {
		members, queue = cs.addClique(ci, gen, members, queue)
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if k > 0 && int(cs.inCliques[t]) >= k {
			continue
		}
		// Triangle t needs more support (or k = 0: take all its cliques so
		// the candidate stays a union of cliques).
		for _, ci := range cs.cliquesOf(t) {
			members, queue = cs.addClique(ci, gen, members, queue)
			if k > 0 && int(cs.inCliques[t]) >= k {
				break
			}
		}
	}
	slices.Sort(members)
	cs.members, cs.queue = members, queue
	return members
}

// appendTriangleEdges appends the edges spanned by the given triangles to
// dst, sorted canonically and deduplicated. Triangles are canonical (A<B<C),
// so each emitted edge already has U < V; the sort and in-place compaction
// allocate nothing once dst has grown to steady state.
func appendTriangleEdges(dst []graph.Edge, ti *graph.TriangleIndex, tris []int32) []graph.Edge {
	for _, t := range tris {
		tri := ti.Tris[t]
		dst = append(dst,
			graph.Edge{U: tri.A, V: tri.B},
			graph.Edge{U: tri.A, V: tri.C},
			graph.Edge{U: tri.B, V: tri.C})
	}
	slices.SortFunc(dst, func(a, b graph.Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	return slices.Compact(dst)
}

// triSetDedup deduplicates sorted triangle-id sets by an FNV-1a style hash
// over the ids with an exact-equality fallback on hash collisions, so the
// dedup semantics are identical to comparing the sets themselves. Inserted
// sets are copied into one flat arena; nothing is built per lookup.
type triSetDedup struct {
	byHash map[uint64][]int32 // hash → indices of stored sets
	offs   []int32            // stored set i occupies flat[offs[i]:offs[i+1]]
	flat   []int32
}

func hashIDSet(ids []int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, id := range ids {
		h ^= uint64(uint32(id))
		h *= prime64
	}
	return h
}

// insert reports whether the set is new, recording it when so. The caller
// may reuse the backing of ids afterwards; stored sets live in the arena.
func (d *triSetDedup) insert(ids []int32) bool {
	if d.byHash == nil {
		d.byHash = make(map[uint64][]int32)
		d.offs = append(d.offs, 0)
	}
	h := hashIDSet(ids)
	for _, si := range d.byHash[h] {
		if slices.Equal(d.flat[d.offs[si]:d.offs[si+1]], ids) {
			return false
		}
	}
	si := int32(len(d.offs) - 1)
	d.flat = append(d.flat, ids...)
	d.offs = append(d.offs, int32(len(d.flat)))
	d.byHash[h] = append(d.byHash[h], si)
	return true
}

// len reports the number of stored sets.
func (d *triSetDedup) len() int { return max(len(d.offs)-1, 0) }

// set returns stored set i; it aliases the arena.
func (d *triSetDedup) set(i int32) []int32 { return d.flat[d.offs[i]:d.offs[i+1]] }

// globalEstimator holds the per-candidate Monte-Carlo validation state of
// Algorithm 2: the current window of the shared world-mask bank, the shared
// per-world triangle-aliveness bank over the candidate union's view, one
// WorldChecker and count slice per pool worker, and the candidate's
// world-check seed, vertex list and index-view scratch. All of it is reused
// across candidates and windows, so validating one more candidate allocates
// nothing at steady state.
//
// The aliveness bank is the shared-scan optimization: each world's
// per-union-triangle aliveness — its three edges present — is computed once
// per world when the window is bound, and every candidate scanned against
// that world reads one aliveness bit per triangle and three per 4-clique
// completion instead of re-testing edge bits (candidates overlap heavily, so
// the same triangles were re-scanned per candidate). The window's
// per-triangle alive-world counts also bound any candidate triangle's
// qualifying count in the window from above, which is what lets scan reject
// a candidate before scanning a single world of it.
type globalEstimator struct {
	pool  *par.Pool
	union []graph.Edge
	words int
	n     int   // total sampled worlds (across all windows)
	need  int32 // smallest count c with c/n ≥ θ
	// Current window: masks holds winWorlds consecutive worlds of the bank,
	// one row per world.
	masks     []uint64
	winWorlds int

	checkers []decomp.WorldChecker
	counts   [][]int32
	verts    []int32
	sub      graph.SubIndexScratch
	seed     decomp.WorldCheckSeed
	m        int // current candidate's view triangle count

	// Shared aliveness state: the union view's triangle count and per-
	// triangle union edge ids, and for the current window the per-world
	// aliveness rows and per-triangle alive-world counts.
	uT       int
	usub     graph.SubIndexScratch
	uSubIDs  []int32
	utriEdge []int32
	aw       int // aliveness words per world
	alive    []uint64
	aliveCnt []int32
	aliveW   [][]int32

	// The pool closures, hoisted (one per estimator, not one per candidate)
	// to keep the per-candidate steady state allocation-free.
	worldFn func(worker, i int)
	aliveFn func(worker, i int)
}

func newGlobalEstimator(pool *par.Pool, parent *graph.TriangleIndex, nv int, union []graph.Edge, n int, theta float64) *globalEstimator {
	w := pool.Workers()
	ge := &globalEstimator{
		pool:     pool,
		union:    union,
		words:    (len(union) + 63) / 64,
		n:        n,
		need:     thetaNeed(theta, n),
		checkers: make([]decomp.WorldChecker, w),
		counts:   make([][]int32, w),
		aliveW:   make([][]int32, w),
	}
	// The union view: every triangle the union's edges span, with dense ids
	// the aliveness bank is indexed by. Candidate views restrict the same
	// parent, so their triangles all appear here (BindAliveness translates
	// candidate view ids through the parent into this id space).
	uview := parent.SubIndex(graph.FromSortedEdges(nv, union), &ge.usub)
	ge.uT = uview.Len()
	ge.uSubIDs = ge.usub.SubIDs()
	ge.aw = (ge.uT + 63) / 64
	ge.utriEdge = make([]int32, 3*ge.uT)
	for u := 0; u < ge.uT; u++ {
		tri := uview.Tris[u]
		ge.utriEdge[3*u] = unionEdgeIndex(union, tri.A, tri.B)
		ge.utriEdge[3*u+1] = unionEdgeIndex(union, tri.A, tri.C)
		ge.utriEdge[3*u+2] = unionEdgeIndex(union, tri.B, tri.C)
	}
	ge.aliveCnt = make([]int32, ge.uT)
	ge.aliveFn = func(worker, i int) {
		row := ge.alive[i*ge.aw : (i+1)*ge.aw]
		clear(row)
		mask := ge.masks[i*ge.words : (i+1)*ge.words]
		cnt := ge.aliveW[worker]
		for u, b := 0, 0; u < ge.uT; u, b = u+1, b+3 {
			if maskBitSet(mask, ge.utriEdge[b]) && maskBitSet(mask, ge.utriEdge[b+1]) && maskBitSet(mask, ge.utriEdge[b+2]) {
				row[u>>6] |= 1 << (uint(u) & 63)
				cnt[u]++
			}
		}
	}
	ge.worldFn = func(worker, i int) {
		ids, ok := ge.checkers[worker].MaskQualifyingAlive(&ge.seed,
			ge.masks[i*ge.words:(i+1)*ge.words], ge.alive[i*ge.aw:(i+1)*ge.aw])
		if !ok {
			return
		}
		cnt := ge.counts[worker]
		for _, id := range ids {
			cnt[id]++
		}
	}
	return ge
}

// setWindow binds the estimator to the next window of the shared bank —
// masks holds `worlds` consecutive world rows — and computes each window
// world's union-triangle aliveness row once (shared by every candidate
// scanned against the window) together with the window's per-triangle
// alive-world counts. The per-worker count slices are summed in worker
// order, so the counts are the exact integers a serial fill would produce.
func (ge *globalEstimator) setWindow(masks []uint64, worlds int) {
	ge.masks, ge.winWorlds = masks, worlds
	if total := worlds * ge.aw; cap(ge.alive) < total {
		ge.alive = make([]uint64, total)
	}
	ge.alive = ge.alive[:worlds*ge.aw]
	for w := range ge.aliveW {
		ge.aliveW[w] = resizeCleared(ge.aliveW[w], ge.uT)
	}
	ge.pool.ForWorker(worlds, ge.aliveFn)
	clear(ge.aliveCnt)
	for _, cw := range ge.aliveW {
		for u, c := range cw {
			ge.aliveCnt[u] += c
		}
	}
}

// seedCandidate binds the estimator to candidate h: restrict the parent
// index (no re-enumeration), pin the candidate's adjacency and 4-clique
// completions, bind the aliveness translation, and clear the per-worker
// counts. Returns the candidate view's triangle count.
func (ge *globalEstimator) seedCandidate(h *graph.Graph, edges []graph.Edge, parent *graph.TriangleIndex, k int) int {
	hti := parent.SubIndex(h, &ge.sub)
	m := hti.Len()
	ge.verts = appendPositiveDegree(ge.verts[:0], h)
	ge.seed.Seed(hti, edges, ge.union, ge.verts, k)
	ge.seed.BindAliveness(ge.sub.ParentIDs(), ge.uSubIDs)
	for w := range ge.counts {
		ge.counts[w] = resizeCleared(ge.counts[w], m)
	}
	ge.m = m
	return m
}

// scan validates the candidate most recently bound with seedCandidate
// against the current window. tot holds the candidate's per-triangle
// qualifying-world counts carried from earlier windows (nil when nothing is
// carried, as in a one-window run) and rest the number of worlds still to
// come after this window. The candidate is rejected — ok false — as soon as
// some triangle's count plus every world still unscanned falls short of
// need: first with the window's alive count standing in for the window's
// qualifying count (a triangle qualifies only where it is alive), so a
// doomed candidate costs no scan, then with the scanned count. Rejection is
// exact: by thetaNeed, a final count below need is exactly an estimate below
// θ, so it fails only candidates the full scan fails. While rest > 0 the
// window's counts are added into tot; on the last window (rest == 0) the
// verdict is final and minProb is the candidate's smallest estimate. Worker
// counts are summed in worker order, so every total is the exact integer a
// serial scan produces.
func (ge *globalEstimator) scan(tot []int32, rest int) (minProb float64, ok bool) {
	short := ge.need - int32(rest) // what carried + window counts must reach
	for t := 0; t < ge.m; t++ {
		c := ge.aliveCnt[ge.seed.AliveUID(t)]
		if tot != nil {
			c += tot[t]
		}
		if c < short {
			return 0, false
		}
	}
	ge.pool.ForWorker(ge.winWorlds, ge.worldFn)
	low := int32(ge.n)
	for t := 0; t < ge.m; t++ {
		var c int32
		if tot != nil {
			c = tot[t]
		}
		for _, cw := range ge.counts {
			c += cw[t]
		}
		if c < short {
			return 0, false
		}
		if rest > 0 {
			tot[t] = c
		}
		low = min(low, c)
	}
	return float64(low) / float64(ge.n), true
}

// thetaNeed returns the smallest qualifying-world count c whose estimate
// c/n clears θ — the rejection threshold of globalEstimator.scan. Computed by
// float comparison on the exact quotients the estimates use, so a count
// below it is exactly an estimate below θ.
func thetaNeed(theta float64, n int) int32 {
	c := int(math.Ceil(theta * float64(n)))
	if c > n {
		c = n
	}
	for c > 0 && float64(c-1)/float64(n) >= theta {
		c--
	}
	for c <= n && float64(c)/float64(n) < theta {
		c++
	}
	return int32(c)
}

// maskBitSet reports whether edge id e is set in a world mask row.
func maskBitSet(mask []uint64, e int32) bool {
	return mask[e>>6]&(1<<(uint(e)&63)) != 0
}

// unionEdgeIndex locates the canonical edge (u,v), u < v, in the sorted
// union edge list (it must be present: union-view triangles span union
// edges by construction).
func unionEdgeIndex(edges []graph.Edge, u, v int32) int32 {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := edges[mid]
		if e.U < u || (e.U == u && e.V < v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(edges) || edges[lo].U != u || edges[lo].V != v {
		panic("core: union triangle edge missing from union edge list")
	}
	return int32(lo)
}

// resizeCleared returns s with length n and every element zero, reusing the
// backing array when it is large enough.
func resizeCleared(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// appendPositiveDegree appends the vertices of g with at least one incident
// edge, in increasing order — the vertex set the global world predicate
// requires to be connected.
func appendPositiveDegree(dst []int32, g *graph.Graph) []int32 {
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if g.Degree(v) > 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

func buildProbNucleus(ti *graph.TriangleIndex, tris []int32, k int, theta, minProb float64) ProbNucleus {
	nuc := ProbNucleus{K: k, Theta: theta, MinProb: minProb}
	vs := make(map[int32]bool)
	es := make(map[graph.Edge]bool)
	for _, t := range tris {
		tri := ti.Tris[t]
		nuc.Triangles = append(nuc.Triangles, tri)
		vs[tri.A], vs[tri.B], vs[tri.C] = true, true, true
		es[graph.Edge{U: tri.A, V: tri.B}] = true
		es[graph.Edge{U: tri.A, V: tri.C}] = true
		es[graph.Edge{U: tri.B, V: tri.C}] = true
	}
	for v := range vs {
		nuc.Vertices = append(nuc.Vertices, v)
	}
	for e := range es {
		nuc.Edges = append(nuc.Edges, e)
	}
	slices.Sort(nuc.Vertices)
	slices.SortFunc(nuc.Edges, func(a, b graph.Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	slices.SortFunc(nuc.Triangles, func(a, b graph.Triangle) int {
		if c := cmp.Compare(a.A, b.A); c != 0 {
			return c
		}
		if c := cmp.Compare(a.B, b.B); c != 0 {
			return c
		}
		return cmp.Compare(a.C, b.C)
	})
	return nuc
}

func sortNuclei(ns []ProbNucleus) {
	slices.SortFunc(ns, func(a, b ProbNucleus) int {
		if c := cmp.Compare(len(b.Vertices), len(a.Vertices)); c != 0 {
			return c
		}
		if len(a.Vertices) == 0 || len(b.Vertices) == 0 {
			return 0
		}
		return cmp.Compare(a.Vertices[0], b.Vertices[0])
	})
}

package decomp

import (
	"probnucleus/internal/bucket"
	"probnucleus/internal/graph"
	"probnucleus/internal/uf"
)

// WorldChecker evaluates the global-semantics world predicate (Definition 4,
// see IsGlobalNucleusWorld) for many sampled worlds of one candidate
// subgraph. It is bound to the candidate's triangle index and restricts it to
// each world with a reusable SubIndex view instead of enumerating the world's
// triangles from scratch, and it keeps its BFS and union-find scratch across
// worlds — so the steady-state per-world cost is a filtering scan with no
// index rebuild. One checker serves one worker; Reset rebinds it to the next
// candidate.
type WorldChecker struct {
	hti     *graph.TriangleIndex
	cand    *graph.Graph
	sub     graph.SubIndexScratch
	u       uf.UF
	visited []int32
	stamp   int32
	queue   []int32
	out     []int32 // qualifying-id output of MaskQualifyingAlive
}

// Reset binds the checker to the triangle index of a candidate subgraph and,
// when cand is non-nil, to the candidate's own edge structure. With cand set,
// worlds passed to QualifyingTriangles may carry edges outside the candidate
// (shared worlds sampled over a candidate union): the checker evaluates the
// predicate on the intersection world ∩ candidate, walking cand's adjacency
// filtered by world membership so foreign edges never connect candidate
// vertices. With cand nil, every world must be a subgraph of the candidate
// (over the same vertex-id space) and connectivity walks the world directly.
func (wc *WorldChecker) Reset(hti *graph.TriangleIndex, cand *graph.Graph) {
	wc.hti = hti
	wc.cand = cand
}

// QualifyingTriangles reports whether the world satisfies the deterministic
// k-nucleus predicate over the fixed vertex set verts, exactly as
// IsGlobalNucleusWorld does. When it holds, it also returns the candidate-
// index ids (ids in the hti passed to Reset) of the world's triangles — the
// triangles a Monte-Carlo counting pass should credit for this world. The
// returned slice aliases the checker's scratch and is valid until the next
// call.
func (wc *WorldChecker) QualifyingTriangles(world *graph.Graph, verts []int32, k int) ([]int32, bool) {
	if !wc.connectedOver(world, verts) {
		return nil, false
	}
	view := wc.hti.SubIndex(world, &wc.sub)
	m := view.Len()
	if k == 0 {
		// Connectivity is the whole predicate (Lemma 2); the view only
		// supplies the triangle list for counting.
		return wc.sub.ParentIDs(), true
	}
	if m == 0 {
		// No triangles at all: there is nothing whose support can reach
		// k ≥ 1, and a k-nucleus must contain triangles.
		return nil, false
	}
	for t := 0; t < m; t++ {
		if len(view.Comps[t]) < k {
			return nil, false
		}
	}
	// Triangle 4-clique-connectivity.
	wc.u.Reset(m)
	for t := 0; t < m; t++ {
		tri := view.Tris[t]
		for _, z := range view.Comps[t] {
			for _, o := range [3]graph.Triangle{
				graph.MakeTriangle(tri.A, tri.B, z),
				graph.MakeTriangle(tri.A, tri.C, z),
				graph.MakeTriangle(tri.B, tri.C, z),
			} {
				id, ok := view.ID(o)
				if !ok {
					return nil, false // cannot happen on a consistent view
				}
				wc.u.Union(int32(t), id)
			}
		}
	}
	root := wc.u.Find(0)
	for t := 1; t < m; t++ {
		if wc.u.Find(int32(t)) != root {
			return nil, false
		}
	}
	return wc.sub.ParentIDs(), true
}

// connectedOver reports whether all the given vertices lie in a single
// connected component of world ∩ candidate, by BFS from verts[0] over a
// stamp array. With a bound candidate the walk follows the candidate's
// adjacency filtered by world membership (so union-world edges outside the
// candidate are invisible); without one it follows the world directly. An
// empty or singleton vertex set counts as connected.
func (wc *WorldChecker) connectedOver(world *graph.Graph, verts []int32) bool {
	if len(verts) <= 1 {
		return true
	}
	n := world.NumVertices()
	if len(wc.visited) < n {
		wc.visited = make([]int32, n)
		wc.stamp = 0
	}
	wc.stamp++
	stamp := wc.stamp
	queue := append(wc.queue[:0], verts[0])
	wc.visited[verts[0]] = stamp
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if wc.cand != nil {
			for _, w := range wc.cand.Neighbors(v) {
				if wc.visited[w] != stamp && world.HasEdge(v, w) {
					wc.visited[w] = stamp
					queue = append(queue, w)
				}
			}
		} else {
			for _, w := range world.Neighbors(v) {
				if wc.visited[w] != stamp {
					wc.visited[w] = stamp
					queue = append(queue, w)
				}
			}
		}
	}
	wc.queue = queue
	for _, v := range verts[1:] {
		if wc.visited[v] != stamp {
			return false
		}
	}
	return true
}

// WorldCheckSeed precomputes, for one candidate of the global algorithm,
// everything the Definition 4 world predicate needs to be evaluated from a
// shared union-world bitmask and a shared per-world triangle-aliveness row:
// the view ids of each 4-clique completion's other three triangles (for
// 4-clique connectivity), their ids in the union aliveness view (see
// BindAliveness), and the candidate's adjacency annotated with union edge ids
// (for vertex connectivity). Built once per candidate — the binary searches
// and triangle-id lookups it amortizes are exactly the per-world costs of
// restricting the candidate view by a materialized world graph — and then
// shared read-only by per-worker checkers.
type WorldCheckSeed struct {
	k int
	m int // candidate view triangle count
	// verts aliases the caller's positive-degree vertex list; the predicate
	// requires the world to connect all of them.
	verts []int32
	// Completions, CSR per triangle: completion j of triangle t occupies
	// slot compOff[t]+j; compOther[3s..3s+2] are the view ids of the
	// clique's other three triangles.
	compOff   []int32
	compOther []int32
	// Candidate adjacency (both directions) with the union edge id of every
	// entry, for the BFS connectivity walk.
	adjOff  []int32
	adjVert []int32
	adjBit  []int32
	nv      int // vertex-space bound of the adjacency (max vertex id + 1)
	// Aliveness fast path, filled by BindAliveness: triUID[t] is view
	// triangle t's id in the shared union view the per-world aliveness
	// bitmasks are computed over, and compOtherUID[3s..3s+2] the union-view
	// ids of completion slot s's other three triangles. Empty until bound.
	triUID       []int32
	compOtherUID []int32
	// Fill-cursor scratch reused across Seed calls.
	cursor []int32
}

// Seed binds the seed to a candidate: view is the candidate's triangle index
// view, edges its canonical sorted edge list, union the edge list the world
// masks are drawn over (the candidate must be a subgraph of it), verts its
// positive-degree vertices (aliased, not copied), and k the nucleus level.
// All storage is reused across candidates of any size.
func (s *WorldCheckSeed) Seed(view *graph.TriangleIndex, edges, union []graph.Edge, verts []int32, k int) {
	m := view.Len()
	s.k, s.m, s.verts = k, m, verts
	// A previous candidate's aliveness binding is meaningless for this one;
	// drop it until BindAliveness is called again.
	s.triUID, s.compOtherUID = s.triUID[:0], s.compOtherUID[:0]
	s.compOff = resizeCleared32(s.compOff, m+1)
	total := 0
	for t := 0; t < m; t++ {
		total += len(view.Comps[t])
		s.compOff[t+1] = int32(total)
	}
	if cap(s.compOther) < 3*total {
		s.compOther = make([]int32, 3*total)
	}
	s.compOther = s.compOther[:3*total]
	for t := 0; t < m; t++ {
		tri := view.Tris[t]
		for j, z := range view.Comps[t] {
			base := 3 * (int(s.compOff[t]) + j)
			for i, o := range [3]graph.Triangle{
				graph.MakeTriangle(tri.A, tri.B, z),
				graph.MakeTriangle(tri.A, tri.C, z),
				graph.MakeTriangle(tri.B, tri.C, z),
			} {
				id, ok := view.ID(o)
				if !ok {
					panic("decomp: 4-clique triangle missing from candidate view")
				}
				s.compOther[base+i] = id
			}
		}
	}
	// Candidate adjacency with union edge ids, assembled CSR-style from the
	// sorted edge list.
	nv := 0
	if len(verts) > 0 {
		nv = int(verts[len(verts)-1]) + 1
	}
	s.nv = nv
	s.adjOff = resizeCleared32(s.adjOff, nv+1)
	for _, e := range edges {
		s.adjOff[e.U+1]++
		s.adjOff[e.V+1]++
	}
	for v := 0; v < nv; v++ {
		s.adjOff[v+1] += s.adjOff[v]
	}
	deg := s.adjOff[nv]
	if cap(s.adjVert) < int(deg) {
		s.adjVert = make([]int32, deg)
		s.adjBit = make([]int32, deg)
	}
	s.adjVert = s.adjVert[:deg]
	s.adjBit = s.adjBit[:deg]
	cursor := resizeCleared32(s.cursor, nv)
	s.cursor = cursor
	for _, e := range edges {
		bit := edgeIndexOf(union, e.U, e.V)
		pu, pv := s.adjOff[e.U]+cursor[e.U], s.adjOff[e.V]+cursor[e.V]
		s.adjVert[pu], s.adjBit[pu] = e.V, bit
		s.adjVert[pv], s.adjBit[pv] = e.U, bit
		cursor[e.U]++
		cursor[e.V]++
	}
}

// BindAliveness binds the seed to a shared per-world triangle-aliveness
// bank computed over a union view of the parent index: parentIDs maps the
// candidate view's dense ids to parent ids (graph.SubIndexScratch.ParentIDs
// of the candidate view), and unionSubIDs maps parent ids to union-view ids
// (graph.SubIndexScratch.SubIDs of the union view). Every candidate triangle
// — and every other triangle of its surviving 4-cliques — lies in the union
// view by construction, since candidates are edge-subgraphs of the union the
// aliveness bank is computed over; BindAliveness panics if not.
//
// After binding, MaskQualifyingAlive can test a triangle's aliveness in a
// world with one bit load into the world's shared aliveness row instead of
// three edge-bit tests, and a 4-clique's aliveness with three (the clique is
// alive iff all four member triangles are — their edge sets union to the
// clique's six edges — and the scanned member is alive already). Call after
// Seed; Seed drops any previous binding.
func (s *WorldCheckSeed) BindAliveness(parentIDs, unionSubIDs []int32) {
	if cap(s.triUID) < s.m {
		s.triUID = make([]int32, s.m)
	}
	s.triUID = s.triUID[:s.m]
	for t := 0; t < s.m; t++ {
		uid := unionSubIDs[parentIDs[t]]
		if uid < 0 {
			panic("decomp: candidate triangle missing from union aliveness view")
		}
		s.triUID[t] = uid
	}
	total := len(s.compOther)
	if cap(s.compOtherUID) < total {
		s.compOtherUID = make([]int32, total)
	}
	s.compOtherUID = s.compOtherUID[:total]
	for i, o := range s.compOther {
		s.compOtherUID[i] = s.triUID[o]
	}
}

// AliveUID returns candidate view triangle t's id in the shared union
// aliveness view bound by BindAliveness — the index of its bit in each
// world's aliveness row and of its slot in any per-union-triangle
// alive-count accumulator.
func (s *WorldCheckSeed) AliveUID(t int) int32 { return s.triUID[t] }

// MaskQualifyingAlive is QualifyingTriangles over a shared union-world
// bitmask and a shared per-world aliveness row: it evaluates the same
// Definition 4 predicate — connectivity over the candidate's vertices,
// support ≥ k for every surviving triangle, pairwise 4-clique connectivity —
// with O(1) bit tests instead of per-world adjacency binary searches and a
// per-world index restriction. alive must have bit u set iff union-view
// triangle u's three edges are all present in the world mask (the caller
// computes one such row per world, shared by every candidate scanned against
// that world): triangle survival reads one aliveness bit, and 4-clique
// survival the three other members' aliveness bits (see BindAliveness for why
// that is equivalent to the clique's edges). Connectivity walks the
// candidate adjacency over the world mask itself. When the predicate holds it
// returns the candidate-view ids of the world's triangles; the slice aliases
// the checker's scratch and is valid until the next call. The seed must have
// been bound with BindAliveness since its last Seed call.
func (wc *WorldChecker) MaskQualifyingAlive(seed *WorldCheckSeed, mask, alive []uint64) ([]int32, bool) {
	if !wc.maskConnected(seed, mask) {
		return nil, false
	}
	out := wc.out[:0]
	for t := 0; t < seed.m; t++ {
		if maskHas(alive, seed.triUID[t]) {
			out = append(out, int32(t))
		}
	}
	wc.out = out
	if seed.k == 0 {
		// Connectivity is the whole predicate (Lemma 2); the scan above only
		// supplies the triangle list for counting.
		return out, true
	}
	if len(out) == 0 {
		// No triangles at all: there is nothing whose support can reach
		// k ≥ 1, and a k-nucleus must contain triangles.
		return nil, false
	}
	for _, t := range out {
		cnt := 0
		for j := seed.compOff[t]; j < seed.compOff[t+1]; j++ {
			b := 3 * j
			if maskHas(alive, seed.compOtherUID[b]) && maskHas(alive, seed.compOtherUID[b+1]) && maskHas(alive, seed.compOtherUID[b+2]) {
				cnt++
			}
		}
		if cnt < seed.k {
			return nil, false
		}
	}
	// Triangle 4-clique-connectivity over the surviving triangles.
	wc.u.Reset(seed.m)
	for _, t := range out {
		for j := seed.compOff[t]; j < seed.compOff[t+1]; j++ {
			b := 3 * j
			if maskHas(alive, seed.compOtherUID[b]) && maskHas(alive, seed.compOtherUID[b+1]) && maskHas(alive, seed.compOtherUID[b+2]) {
				wc.u.Union(t, seed.compOther[b])
				wc.u.Union(t, seed.compOther[b+1])
				wc.u.Union(t, seed.compOther[b+2])
			}
		}
	}
	root := wc.u.Find(out[0])
	for _, t := range out[1:] {
		if wc.u.Find(t) != root {
			return nil, false
		}
	}
	return out, true
}

// maskConnected is connectedOver for the mask path: BFS over the seed's
// candidate adjacency, following an edge iff its union bit is set in the
// world mask.
func (wc *WorldChecker) maskConnected(seed *WorldCheckSeed, mask []uint64) bool {
	verts := seed.verts
	if len(verts) <= 1 {
		return true
	}
	if len(wc.visited) < seed.nv {
		wc.visited = make([]int32, seed.nv)
		wc.stamp = 0
	}
	wc.stamp++
	stamp := wc.stamp
	queue := append(wc.queue[:0], verts[0])
	wc.visited[verts[0]] = stamp
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for idx := seed.adjOff[v]; idx < seed.adjOff[v+1]; idx++ {
			w := seed.adjVert[idx]
			if wc.visited[w] != stamp && maskHas(mask, seed.adjBit[idx]) {
				wc.visited[w] = stamp
				queue = append(queue, w)
			}
		}
	}
	wc.queue = queue
	for _, v := range verts[1:] {
		if wc.visited[v] != stamp {
			return false
		}
	}
	return true
}

// IsGlobalNucleusWorld reports whether a possible world qualifies as a
// deterministic k-nucleus for the global (g) semantics of Definition 4:
//
//	1g(G, △, k) = 1  iff  △ is in G and G is a deterministic k-nucleus.
//
// Following the paper's own usage (Example 1 counts the world in which
// vertex 4 hangs off the {1,2,3,5} clique by a single edge, and the
// reliability reduction of Lemma 2 equates 0-nuclei with connected worlds),
// "G is a deterministic k-nucleus" is evaluated as:
//
//   - G is connected over the fixed vertex set verts (the vertices of the
//     candidate subgraph H whose worlds are being sampled); and
//   - every triangle of G is contained in at least k 4-cliques of G; and
//   - for k ≥ 1, the triangles of G are pairwise 4-clique-connected.
//
// For k = 0 the last two conditions are vacuous and the predicate collapses
// to world connectivity, exactly as Lemma 2 requires.
//
// This convenience form builds a fresh index for the world; hot loops use a
// WorldChecker bound to the candidate's index instead.
func IsGlobalNucleusWorld(world *graph.Graph, verts []int32, k int) bool {
	var wc WorldChecker
	wc.Reset(graph.NewTriangleIndex(world), nil)
	_, ok := wc.QualifyingTriangles(world, verts, k)
	return ok
}

// WorldMembershipScorer evaluates, for many sampled worlds of one candidate
// subgraph, which candidate triangles have deterministic nucleusness ≥ k in
// the world — the predicate 1w(G, △, k) of Definition 4 for all triangles at
// once. Like WorldChecker it restricts the candidate's index to each world
// with a reusable view instead of re-enumerating, and reports results as
// candidate-index ids so callers can count into flat per-triangle slots. One
// scorer serves one worker; Reset rebinds it to the next candidate.
type WorldMembershipScorer struct {
	hti *graph.TriangleIndex
	sub graph.SubIndexScratch
	out []int32
	// Reusable per-world peeling state (see nucleusPeelInto).
	ca CliqueAdj
	q  bucket.Queue
	nu []int
	// Incremental-peel scratch (see NonQualifying): generation-stamped
	// deadness, lazily-copied supports, clique-kill marks, and the deletion
	// worklist. gen only ever increases, so stale stamps from a previous
	// candidate bound to the same scorer can never collide.
	gen       int32
	deadStamp []int32
	supStamp  []int32
	clStamp   []int32
	sup       []int32
	work      []int32
}

// Reset binds the scorer to the triangle index of a candidate subgraph.
func (ws *WorldMembershipScorer) Reset(hti *graph.TriangleIndex) { ws.hti = hti }

// Qualifying returns the candidate-index ids of the world's triangles whose
// deterministic nucleusness in the world is at least k, via one deterministic
// nucleus decomposition of the world. The returned slice aliases the scorer's
// scratch and is valid until the next call.
func (ws *WorldMembershipScorer) Qualifying(world *graph.Graph, k int) []int32 {
	view := ws.hti.SubIndex(world, &ws.sub)
	pids := ws.sub.ParentIDs()
	out := ws.out[:0]
	if k == 0 {
		// Every triangle is its own connected 0-nucleus (Lemma 2 semantics).
		out = append(out, pids...)
		ws.out = out
		return out
	}
	ws.ca.Reset(view)
	if cap(ws.nu) < view.Len() {
		ws.nu = make([]int, view.Len())
	}
	nu := nucleusPeelInto(&ws.ca, &ws.q, ws.nu[:view.Len()])
	for t := range nu {
		if nu[t] >= k && hasLevelKClique(view, nu, int32(t), k) {
			out = append(out, pids[t])
		}
	}
	ws.out = out
	return out
}

// WorldPeelSeed is the per-candidate precomputation behind incremental
// per-world peeling: the candidate's own deterministic peel, restricted to
// its level-k core, laid out as flat CSR incidence from candidate edges to
// core triangles and from core triangles to core 4-cliques. A sampled world
// can only lose cliques relative to the candidate, so its k-qualifying
// triangle set is the candidate core minus a deletion cascade seeded at the
// world's missing edges — WorldMembershipScorer.NonQualifying walks exactly
// that cascade instead of re-running the full bucket-queue peel per world.
//
// One seed is built per candidate (Seed reuses all storage across
// candidates of any size) and is then shared read-only by per-worker
// scorers.
type WorldPeelSeed struct {
	k int
	m int // candidate view triangle count
	// core: the view ids (ascending) with candidate nucleusness ≥ k — by
	// monotonicity under subgraphs, a triangle outside the core qualifies
	// in no world. inCore is the matching membership mask.
	core   []int32
	inCore []bool
	// edges aliases the candidate's canonical sorted edge list;
	// etIDs[etOff[e]:etOff[e+1]] are the core triangles containing edge e.
	edges []graph.Edge
	etOff []int32
	etIDs []int32
	// edgeBit[e], filled by MapUnion, is candidate edge e's id in the union
	// edge list the shared world masks are drawn over (-1 before MapUnion).
	edgeBit []int32
	// cliques holds every 4-clique of the core once, as its four member view
	// ids; clIDs[clOff[t]:clOff[t+1]] are the cliques containing triangle t,
	// and supBase[t] their count — the support every world starts from
	// before its losses are applied.
	cliques [][4]int32
	clOff   []int32
	clIDs   []int32
	supBase []int32
	// Candidate-peel and fill-cursor scratch, reused across Seed calls.
	ca     CliqueAdj
	q      bucket.Queue
	nu     []int
	cursor []int32
}

// K returns the nucleus level the seed was built for.
func (s *WorldPeelSeed) K() int { return s.k }

// Core returns the view ids of the candidate's level-k core in ascending
// order: the only triangles that can qualify in any world. The slice aliases
// the seed and is valid until the next Seed call.
func (s *WorldPeelSeed) Core() []int32 { return s.core }

// InCore reports whether candidate view id t lies in the level-k core.
func (s *WorldPeelSeed) InCore(t int32) bool { return s.inCore[t] }

// Seed binds the seed to a candidate: view is the candidate's triangle index
// (or an id-translating view of a parent index) and edges its canonical
// sorted edge list. It peels the candidate once (the deterministic nucleus
// decomposition worlds can only shrink), keeps the level-k core, and lays
// out the edge→triangle and triangle→clique incidence the per-world cascade
// consumes. For k = 0 the core is the whole candidate and no clique
// structure is built: a triangle qualifies in a world iff its three edges
// survive (Lemma 2 semantics).
func (s *WorldPeelSeed) Seed(view *graph.TriangleIndex, edges []graph.Edge, k int) {
	m := view.Len()
	s.k, s.m = k, m
	s.edges = edges
	s.core = s.core[:0]
	if cap(s.inCore) < m {
		s.inCore = make([]bool, m)
	}
	s.inCore = s.inCore[:m]
	clear(s.inCore)
	if k == 0 {
		for t := int32(0); int(t) < m; t++ {
			s.inCore[t] = true
			s.core = append(s.core, t)
		}
		s.cliques = s.cliques[:0]
		s.clOff = resizeCleared32(s.clOff, m+1)
		s.clIDs = s.clIDs[:0]
		s.supBase = resizeCleared32(s.supBase, m)
	} else {
		s.ca.Reset(view)
		if cap(s.nu) < m {
			s.nu = make([]int, m)
		}
		nu := nucleusPeelInto(&s.ca, &s.q, s.nu[:m])
		for t := int32(0); int(t) < m; t++ {
			if nu[t] >= k {
				s.inCore[t] = true
				s.core = append(s.core, t)
			}
		}
		// Enumerate the core's 4-cliques once (z > tri.C picks each clique at
		// its lexicographically first triangle) and lay out per-triangle
		// membership CSR-style.
		s.cliques = s.cliques[:0]
		for _, t := range s.core {
			tri := view.Tris[t]
			for _, z := range view.Comps[t] {
				if z <= tri.C {
					continue
				}
				ids, ok := coreCliqueIDs(view, s.inCore, tri, z)
				if !ok {
					continue
				}
				s.cliques = append(s.cliques, [4]int32{t, ids[0], ids[1], ids[2]})
			}
		}
		s.clOff = resizeCleared32(s.clOff, m+1)
		for _, cl := range s.cliques {
			for _, id := range cl {
				s.clOff[id+1]++
			}
		}
		for t := 0; t < m; t++ {
			s.clOff[t+1] += s.clOff[t]
		}
		if cap(s.clIDs) < int(s.clOff[m]) {
			s.clIDs = make([]int32, s.clOff[m])
		}
		s.clIDs = s.clIDs[:s.clOff[m]]
		s.supBase = resizeCleared32(s.supBase, m)
		for ci, cl := range s.cliques {
			for _, id := range cl {
				s.clIDs[s.clOff[id]+s.supBase[id]] = int32(ci)
				s.supBase[id]++
			}
		}
	}
	// Edge → core-triangle incidence: each core triangle contributes its
	// three edges, located by binary search in the sorted candidate list.
	s.etOff = resizeCleared32(s.etOff, len(edges)+1)
	for _, t := range s.core {
		tri := view.Tris[t]
		s.etOff[edgeIndexOf(edges, tri.A, tri.B)+1]++
		s.etOff[edgeIndexOf(edges, tri.A, tri.C)+1]++
		s.etOff[edgeIndexOf(edges, tri.B, tri.C)+1]++
	}
	for e := 0; e < len(edges); e++ {
		s.etOff[e+1] += s.etOff[e]
	}
	if cap(s.etIDs) < int(s.etOff[len(edges)]) {
		s.etIDs = make([]int32, s.etOff[len(edges)])
	}
	s.etIDs = s.etIDs[:s.etOff[len(edges)]]
	cursor := resizeCleared32(s.cursor, len(edges))
	s.cursor = cursor
	for _, t := range s.core {
		tri := view.Tris[t]
		for _, e := range [3]int32{
			edgeIndexOf(edges, tri.A, tri.B),
			edgeIndexOf(edges, tri.A, tri.C),
			edgeIndexOf(edges, tri.B, tri.C),
		} {
			s.etIDs[s.etOff[e]+cursor[e]] = t
			cursor[e]++
		}
	}
}

// MapUnion binds the seed to the union edge list the shared world masks are
// drawn over: each candidate edge is located in union by binary search, so
// NonQualifyingMask can test world membership with one bit load instead of
// an adjacency binary search per edge per world. Call it after Seed; the
// candidate's edges must all be present in union (candidates are subgraphs
// of the union by construction).
func (s *WorldPeelSeed) MapUnion(union []graph.Edge) {
	s.edgeBit = resizeCleared32(s.edgeBit, len(s.edges))
	for ei, e := range s.edges {
		s.edgeBit[ei] = edgeIndexOf(union, e.U, e.V)
	}
}

// maskHas reports whether edge id e is set in a world mask.
func maskHas(mask []uint64, e int32) bool {
	return mask[e>>6]&(1<<(uint(e)&63)) != 0
}

// coreCliqueIDs resolves the other three triangles of the clique tri ∪ {z}
// in the view and reports whether all of them lie in the core mask.
func coreCliqueIDs(view *graph.TriangleIndex, inCore []bool, tri graph.Triangle, z int32) ([3]int32, bool) {
	var ids [3]int32
	for i, o := range [3]graph.Triangle{
		graph.MakeTriangle(tri.A, tri.B, z),
		graph.MakeTriangle(tri.A, tri.C, z),
		graph.MakeTriangle(tri.B, tri.C, z),
	} {
		id, ok := view.ID(o)
		if !ok || !inCore[id] {
			return ids, false
		}
		ids[i] = id
	}
	return ids, true
}

// edgeIndexOf locates the canonical edge (u,v), u < v, in a (U,V)-sorted
// edge list. The edge must be present (candidate triangles span candidate
// edges by construction).
func edgeIndexOf(edges []graph.Edge, u, v int32) int32 {
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
		panic("decomp: candidate triangle edge missing from edge list")
	}
	return int32(lo)
}

// resizeCleared32 returns s with length n and every element zero, reusing
// the backing array when it is large enough.
func resizeCleared32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// NonQualifying returns the view ids of the candidate-core triangles (see
// WorldPeelSeed) that do NOT belong to a deterministic k-nucleus of the
// given world: the core triangles that lost one of their own edges, plus the
// support-starvation cascade those losses trigger through the core's
// 4-cliques. It is the incremental complement of Qualifying — the two
// partition the core exactly, but the work here is proportional to what the
// world lost rather than to the candidate's size, which is the dominant-term
// win of the shared-world engine when edge probabilities are high. The world
// may carry edges outside the candidate (shared union worlds); only
// candidate edges are consulted. The returned slice aliases the scorer's
// scratch and is valid until the next call.
func (ws *WorldMembershipScorer) NonQualifying(seed *WorldPeelSeed, world *graph.Graph) []int32 {
	gen := ws.beginWorld(seed)
	dead := ws.out[:0]
	for ei := range seed.edges {
		e := seed.edges[ei]
		if seed.etOff[ei] == seed.etOff[ei+1] || world.HasEdge(e.U, e.V) {
			continue
		}
		dead = ws.killEdge(seed, gen, int32(ei), dead)
	}
	return ws.cascade(seed, gen, dead)
}

// NonQualifyingMask is NonQualifying over a shared union-world bitmask (see
// mc.WorldMasksPool): the lost-edge scan tests one bit per candidate edge —
// through the union ids bound by MapUnion — instead of a binary search in
// the world's adjacency, which removes the dominant per-world lookup cost
// on large unions. Masks and materialized worlds drawn from the same seed
// describe the same worlds, so the two forms return identical sets.
func (ws *WorldMembershipScorer) NonQualifyingMask(seed *WorldPeelSeed, mask []uint64) []int32 {
	gen := ws.beginWorld(seed)
	dead := ws.out[:0]
	for ei := range seed.edges {
		if seed.etOff[ei] == seed.etOff[ei+1] || maskHas(mask, seed.edgeBit[ei]) {
			continue
		}
		dead = ws.killEdge(seed, gen, int32(ei), dead)
	}
	return ws.cascade(seed, gen, dead)
}

// beginWorld sizes the generation-stamped scratch for the seed's candidate
// and opens a new world generation.
func (ws *WorldMembershipScorer) beginWorld(seed *WorldPeelSeed) int32 {
	if len(ws.deadStamp) < seed.m {
		ws.deadStamp = make([]int32, seed.m)
		ws.supStamp = make([]int32, seed.m)
		ws.sup = make([]int32, seed.m)
	}
	if len(ws.clStamp) < len(seed.cliques) {
		ws.clStamp = make([]int32, len(seed.cliques))
	}
	ws.work = ws.work[:0]
	ws.gen++
	return ws.gen
}

// killEdge marks the core triangles containing lost edge ei dead, appending
// them to both the result and the cascade worklist.
func (ws *WorldMembershipScorer) killEdge(seed *WorldPeelSeed, gen, ei int32, dead []int32) []int32 {
	for _, t := range seed.etIDs[seed.etOff[ei]:seed.etOff[ei+1]] {
		if ws.deadStamp[t] != gen {
			ws.deadStamp[t] = gen
			dead = append(dead, t)
			ws.work = append(ws.work, t)
		}
	}
	return dead
}

// cascade drains the deletion worklist: every clique of a dead triangle dies
// once, decrementing the lazily-copied supports of its live members, and a
// member starved below k dies in turn.
func (ws *WorldMembershipScorer) cascade(seed *WorldPeelSeed, gen int32, dead []int32) []int32 {
	work := ws.work
	if seed.k > 0 {
		for len(work) > 0 {
			t := work[len(work)-1]
			work = work[:len(work)-1]
			for _, ci := range seed.clIDs[seed.clOff[t]:seed.clOff[t+1]] {
				if ws.clStamp[ci] == gen {
					continue // clique already killed by an earlier loss
				}
				ws.clStamp[ci] = gen
				for _, o := range seed.cliques[ci] {
					if ws.deadStamp[o] == gen {
						continue
					}
					if ws.supStamp[o] != gen {
						ws.supStamp[o] = gen
						ws.sup[o] = seed.supBase[o]
					}
					ws.sup[o]--
					if int(ws.sup[o]) < seed.k {
						ws.deadStamp[o] = gen
						dead = append(dead, o)
						work = append(work, o)
					}
				}
			}
		}
	}
	ws.out, ws.work = dead, work
	return dead
}

// WorldNucleusMembership returns, for the given world, the set of triangles
// (as canonical Triangles) whose deterministic nucleusness in the world is
// at least k — equivalently, the triangles for which some subgraph of the
// world is a deterministic k-nucleus containing them. This convenience form
// builds a fresh index for the world; hot loops use a WorldMembershipScorer
// bound to the candidate's index instead.
func WorldNucleusMembership(world *graph.Graph, k int) map[graph.Triangle]bool {
	ti := graph.NewTriangleIndex(world)
	var ws WorldMembershipScorer
	ws.Reset(ti)
	out := make(map[graph.Triangle]bool)
	for _, id := range ws.Qualifying(world, k) {
		out[ti.Tris[id]] = true
	}
	return out
}

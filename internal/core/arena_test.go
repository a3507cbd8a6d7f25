package core

import (
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/decomp"
	"probnucleus/internal/graph"
	"probnucleus/internal/mc"
	"probnucleus/internal/par"
)

// arenaFixture builds a candidate space plus warmed scratch over the krogan
// dataset, the setup shared by the steady-state allocation tests below.
func arenaFixture(t testing.TB) (*candidateSpace, []graph.Edge) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.08)))
	local, err := LocalDecompose(pg, 0.1, Options{Mode: ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs := newCandidateSpace(local, 1)
	if len(cs.triangles) < 4 {
		t.Fatalf("fixture too small: %d candidate triangles", len(cs.triangles))
	}
	var edges []graph.Edge
	for _, seed := range cs.triangles { // warm every scratch buffer
		edges = appendTriangleEdges(edges[:0], cs.ti, cs.closure(seed, 1))
	}
	return cs, edges
}

// TestClosureGrowthAllocationFree: growing candidates (Algorithm 2 lines
// 5-7) and assembling their sorted edge sets must not allocate once the
// per-space scratch has reached steady state — the arena discipline the
// PR-2 peeling loop established, extended to the global pipeline.
func TestClosureGrowthAllocationFree(t *testing.T) {
	cs, edges := arenaFixture(t)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		seed := cs.triangles[i%len(cs.triangles)]
		edges = appendTriangleEdges(edges[:0], cs.ti, cs.closure(seed, 1))
		i++
	})
	if allocs != 0 {
		t.Errorf("closure growth + edge-set assembly allocates %v per seed, want 0", allocs)
	}
}

// TestTriSetDedupLookupAllocationFree: re-checking an already-stored
// triangle set (the common case — most seeds grow an already-seen closure)
// must not allocate.
func TestTriSetDedupLookupAllocationFree(t *testing.T) {
	cs, _ := arenaFixture(t)
	var seen triSetDedup
	for _, seed := range cs.triangles {
		seen.insert(cs.closure(seed, 1))
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		seed := cs.triangles[i%len(cs.triangles)]
		if seen.insert(cs.closure(seed, 1)) {
			t.Fatal("set unexpectedly new")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("dedup lookup allocates %v per seed, want 0", allocs)
	}
}

// TestTriSetDedupSemantics: the hash-with-equality-fallback dedup must agree
// with literal set comparison — same first-insert wins, duplicates rejected,
// near-miss sets (prefix, superset, single-element change) kept.
func TestTriSetDedupSemantics(t *testing.T) {
	var d triSetDedup
	sets := [][]int32{
		{1, 2, 3},
		{1, 2},
		{1, 2, 3, 4},
		{1, 2, 4},
		{},
	}
	for i, s := range sets {
		if !d.insert(s) {
			t.Fatalf("set %d %v rejected on first insert", i, s)
		}
	}
	for i, s := range sets {
		dup := append([]int32(nil), s...)
		if d.insert(dup) {
			t.Fatalf("set %d %v accepted twice", i, dup)
		}
	}
}

// TestSharedWorldGlobalValidationAllocationFree: validating one more
// candidate against a one-window bank — the seed-and-scan step: index
// restriction, early rejection, per-world predicate checks, and the verdict
// over the summed counts — must not allocate once the estimator's scratch
// has reached steady state. This is the allocation contract of the
// shared-world engine: the only per-call allocations are the union worlds
// themselves, sampled once.
func TestSharedWorldGlobalValidationAllocationFree(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.08)))
	local, err := LocalDecompose(pg, 0.1, Options{Mode: ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs := newCandidateSpace(local, 1)
	if len(cs.triangles) < 4 {
		t.Fatalf("fixture too small: %d candidate triangles", len(cs.triangles))
	}
	pool := par.NewPool(1)
	defer pool.Close()
	union := appendTriangleEdges(nil, cs.ti, cs.triangles)
	masks, words := mc.WorldMasksPool(pool, pg.SubgraphOfEdges(union), 16, 1)
	est := newGlobalEstimator(pool, cs.ti, pg.NumVertices(), union, 16, 0.001)
	if est.words != words {
		t.Fatalf("estimator words %d != bank words %d", est.words, words)
	}
	est.setWindow(masks, 16)
	var hs []*graph.Graph
	var ess [][]graph.Edge
	var seen triSetDedup
	for _, seed := range cs.triangles {
		closure := cs.closure(seed, 1)
		if !seen.insert(closure) {
			continue
		}
		edges := appendTriangleEdges(nil, cs.ti, closure)
		ess = append(ess, edges)
		hs = append(hs, graph.FromSortedEdges(pg.NumVertices(), edges))
	}
	for i, h := range hs { // warm every scratch buffer
		est.seedCandidate(h, ess[i], cs.ti, 1)
		est.scan(nil, 0)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		j := i % len(hs)
		est.seedCandidate(hs[j], ess[j], cs.ti, 1)
		est.scan(nil, 0)
		i++
	})
	if allocs != 0 {
		t.Errorf("shared-world candidate validation allocates %v per candidate, want 0", allocs)
	}
}

// TestWindowStreamingScanAllocationFree: streaming one more window past an
// already-known candidate — the window rebind (shared aliveness fill
// included), candidate reseed, and the scan that carries its totals or
// takes the verdict — must not allocate at steady state. This is the allocation contract of the windowed
// bank path: peak memory is the window, and cycling windows costs no churn.
func TestWindowStreamingScanAllocationFree(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.08)))
	local, err := LocalDecompose(pg, 0.1, Options{Mode: ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs := newCandidateSpace(local, 1)
	if len(cs.triangles) < 4 {
		t.Fatalf("fixture too small: %d candidate triangles", len(cs.triangles))
	}
	pool := par.NewPool(1)
	defer pool.Close()
	union := appendTriangleEdges(nil, cs.ti, cs.triangles)
	upg := pg.SubgraphOfEdges(union)
	var bank mc.Bank
	const n, win = 64, 16
	est := newGlobalEstimator(pool, cs.ti, pg.NumVertices(), union, n, 0.001)
	edges := appendTriangleEdges(nil, cs.ti, cs.closure(cs.triangles[0], 1))
	h := graph.FromSortedEdges(pg.NumVertices(), edges)
	var totals []int32
	for lo := 0; lo < n; lo += win { // warm every scratch buffer
		masks, _ := bank.WorldMasksWindow(pool, upg, n, lo, lo+win, 1)
		est.setWindow(masks, win)
		m := est.seedCandidate(h, edges, cs.ti, 1)
		totals = resizeCleared(totals, m)
		est.scan(totals, n-lo-win)
	}
	lo := 0
	allocs := testing.AllocsPerRun(100, func() {
		masks, _ := bank.WorldMasksWindow(pool, upg, n, lo, lo+win, 1)
		est.setWindow(masks, win)
		est.seedCandidate(h, edges, cs.ti, 1)
		est.scan(totals, n-lo-win)
		lo = (lo + win) % n
	})
	if allocs != 0 {
		t.Errorf("window streaming allocates %v per window, want 0", allocs)
	}
}

// TestAlivenessRebindAllocationFree: rebinding the shared-aliveness seed
// across candidates of different shapes — Seed plus BindAliveness plus the
// alive-bit scan — must not allocate once the seed's uid scratch has grown
// to the largest candidate.
func TestAlivenessRebindAllocationFree(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.08)))
	local, err := LocalDecompose(pg, 0.1, Options{Mode: ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs := newCandidateSpace(local, 1)
	if len(cs.triangles) < 4 {
		t.Fatalf("fixture too small: %d candidate triangles", len(cs.triangles))
	}
	pool := par.NewPool(1)
	defer pool.Close()
	union := appendTriangleEdges(nil, cs.ti, cs.triangles)
	masks, _ := mc.WorldMasksPool(pool, pg.SubgraphOfEdges(union), 16, 1)
	est := newGlobalEstimator(pool, cs.ti, pg.NumVertices(), union, 16, 0.001)
	est.setWindow(masks, 16)
	var hs []*graph.Graph
	var ess [][]graph.Edge
	var seen triSetDedup
	for _, seed := range cs.triangles {
		closure := cs.closure(seed, 1)
		if !seen.insert(closure) {
			continue
		}
		edges := appendTriangleEdges(nil, cs.ti, closure)
		ess = append(ess, edges)
		hs = append(hs, graph.FromSortedEdges(pg.NumVertices(), edges))
	}
	for i, h := range hs { // warm every scratch buffer
		est.seedCandidate(h, ess[i], cs.ti, 1)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		j := i % len(hs)
		m := est.seedCandidate(hs[j], ess[j], cs.ti, 1)
		for t := 0; t < m; t++ {
			_ = est.aliveCnt[est.seed.AliveUID(t)]
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("aliveness rebind allocates %v per candidate, want 0", allocs)
	}
}

// TestSharedWorldWeakScoringAllocationFree: the weak-path steady state —
// rebinding the peel seed to the next candidate and running the incremental
// per-world loss cascade over the shared worlds — must not allocate either,
// across candidates of different sizes.
func TestSharedWorldWeakScoringAllocationFree(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.08)))
	local, err := LocalDecompose(pg, 0.1, Options{Mode: ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cands := local.NucleiForK(1)
	if len(cands) < 2 {
		t.Fatalf("fixture too small: %d candidates", len(cands))
	}
	pool := par.NewPool(1)
	defer pool.Close()
	union := unionEdges(cands)
	masks, words := mc.WorldMasksPool(pool, pg.SubgraphOfEdges(union), 16, 1)
	hs := make([]*graph.Graph, len(cands))
	for i, cand := range cands {
		hs[i] = graph.FromSortedEdges(pg.NumVertices(), cand.Edges)
	}
	var sub graph.SubIndexScratch
	var seed decomp.WorldPeelSeed
	var scorer decomp.WorldMembershipScorer
	var losses []int32
	scoreCand := func(i int) {
		hti := local.TI.SubIndex(hs[i], &sub)
		seed.Seed(hti, cands[i].Edges, 1)
		seed.MapUnion(union)
		losses = resizeCleared(losses, hti.Len())
		for w := 0; w < 16; w++ {
			for _, id := range scorer.NonQualifyingMask(&seed, masks[w*words:(w+1)*words]) {
				losses[id]++
			}
		}
	}
	for i := range cands { // warm every scratch buffer
		scoreCand(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		scoreCand(i % len(cands))
		i++
	})
	if allocs != 0 {
		t.Errorf("shared-world weak scoring allocates %v per candidate, want 0", allocs)
	}
}

// BenchmarkClosureEdgeSet measures the per-seed candidate growth of
// GlobalNuclei in isolation: clique closure over the stamped scratch plus
// sorted-edge-set assembly. ReportAllocs is the regression gate — the
// steady state is allocation-free (see TestClosureGrowthAllocationFree).
func BenchmarkClosureEdgeSet(b *testing.B) {
	cs, edges := arenaFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := cs.triangles[i%len(cs.triangles)]
		edges = appendTriangleEdges(edges[:0], cs.ti, cs.closure(seed, 1))
	}
}

package decomp_test

import (
	"fmt"
	"slices"
	"testing"

	"probnucleus/internal/core"
	"probnucleus/internal/dataset"
	"probnucleus/internal/decomp"
	"probnucleus/internal/graph"
	"probnucleus/internal/mc"
	"probnucleus/internal/par"
)

// TestMaskQualifyingAliveMatchesEdgeOracle: the aliveness form of the global
// world predicate, which the global kernel runs, must return exactly the
// edge-bit reference's (ids, ok) on every sampled world, over the global
// candidates of krogan at scale 0.08 (θ = 0.1, k = 1).
func TestMaskQualifyingAliveMatchesEdgeOracle(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.08)))
	local, err := core.LocalDecompose(pg, 0.1, core.Options{Mode: core.ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ti, nu := local.TI, local.Nucleusness
	const k = 1
	// At k = 1 a global candidate is the union of the level-1 4-cliques
	// containing its seed triangle: Algorithm 2's closure stops there, since
	// every member already lies in one of them.
	var cands [][]int32
	seen := map[string]bool{}
	for s := int32(0); int(s) < ti.Len(); s++ {
		if nu[s] < k {
			continue
		}
		tri := ti.Tris[s]
		set := []int32{s}
		for _, z := range ti.Comps[s] {
			var others []int32
			for _, o := range [3]graph.Triangle{
				graph.MakeTriangle(tri.A, tri.B, z),
				graph.MakeTriangle(tri.A, tri.C, z),
				graph.MakeTriangle(tri.B, tri.C, z),
			} {
				if id, ok := ti.ID(o); ok && nu[id] >= k {
					others = append(others, id)
				}
			}
			if len(others) == 3 {
				set = append(set, others...)
			}
		}
		if len(set) == 1 {
			continue // no level-k clique: not in the candidate space
		}
		slices.Sort(set)
		set = slices.Compact(set)
		if key := fmt.Sprint(set); !seen[key] {
			seen[key] = true
			cands = append(cands, set)
		}
	}
	if len(cands) < 4 {
		t.Fatalf("fixture too small: %d candidates", len(cands))
	}
	edgesOf := func(tris []int32) []graph.Edge {
		var es []graph.Edge
		for _, id := range tris {
			tri := ti.Tris[id]
			es = append(es, graph.Edge{U: tri.A, V: tri.B}, graph.Edge{U: tri.A, V: tri.C}, graph.Edge{U: tri.B, V: tri.C})
		}
		slices.SortFunc(es, func(a, b graph.Edge) int {
			if a.U != b.U {
				return int(a.U - b.U)
			}
			return int(a.V - b.V)
		})
		return slices.Compact(es)
	}
	nv := pg.NumVertices()
	var all []int32
	for _, cand := range cands {
		all = append(all, cand...)
	}
	union := edgesOf(all)

	// The shared worlds and their union-triangle aliveness rows.
	pool := par.NewPool(1)
	defer pool.Close()
	const n = 64
	masks, words := mc.WorldMasksPool(pool, pg.SubgraphOfEdges(union), n, 7)
	var usub graph.SubIndexScratch
	uview := ti.SubIndex(graph.FromSortedEdges(nv, union), &usub)
	uSubIDs := usub.SubIDs()
	ume := decomp.NewMaskEdges(uview, union)
	aw := (uview.Len() + 63) / 64
	alive := make([]uint64, n*aw)
	for w := 0; w < n; w++ {
		mask := masks[w*words : (w+1)*words]
		for u := 0; u < uview.Len(); u++ {
			if hasBit(mask, ume.TriEdge(u, 0)) && hasBit(mask, ume.TriEdge(u, 1)) && hasBit(mask, ume.TriEdge(u, 2)) {
				alive[w*aw+u/64] |= 1 << (uint(u) % 64)
			}
		}
	}

	var sub graph.SubIndexScratch
	var seed decomp.WorldCheckSeed
	var viaAlive, viaEdges decomp.WorldChecker
	passed, failed := 0, 0
	for ci, cand := range cands {
		edges := edgesOf(cand)
		h := graph.FromSortedEdges(nv, edges)
		view := ti.SubIndex(h, &sub)
		var verts []int32
		for v := int32(0); int(v) < nv; v++ {
			if h.Degree(v) > 0 {
				verts = append(verts, v)
			}
		}
		seed.Seed(view, edges, union, verts, k)
		seed.BindAliveness(sub.ParentIDs(), uSubIDs)
		me := decomp.NewMaskEdges(view, union)
		for w := 0; w < n; w++ {
			mask := masks[w*words : (w+1)*words]
			want, wantOK := viaEdges.MaskQualifying(&seed, me, mask)
			want = slices.Clone(want)
			got, gotOK := viaAlive.MaskQualifyingAlive(&seed, mask, alive[w*aw:(w+1)*aw])
			if gotOK != wantOK || (wantOK && !slices.Equal(got, want)) {
				t.Fatalf("candidate %d world %d: aliveness form (%v, %v), edge-bit form (%v, %v)",
					ci, w, got, gotOK, want, wantOK)
			}
			if wantOK {
				passed++
			} else {
				failed++
			}
		}
	}
	if passed == 0 || failed == 0 {
		t.Fatalf("fixture vacuous: %d qualifying worlds, %d failing", passed, failed)
	}
	t.Logf("%d candidates: %d qualifying worlds, %d failing", len(cands), passed, failed)
}

func hasBit(mask []uint64, e int32) bool { return mask[e>>6]&(1<<(uint(e)&63)) != 0 }

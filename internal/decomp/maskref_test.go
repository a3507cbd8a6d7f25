package decomp

import "probnucleus/internal/graph"

// MaskEdges holds the union edge ids the edge-bit reference predicate
// (MaskQualifying) tests per world: tri[3t..3t+2] are view triangle t's three
// edges, and comp[3s..3s+2] the three z-edges of 4-clique completion slot s,
// in WorldCheckSeed's completion order.
type MaskEdges struct {
	tri, comp []int32
}

// NewMaskEdges locates every triangle edge and completion edge of a candidate
// view in the sorted union edge list the world masks are drawn over.
func NewMaskEdges(view *graph.TriangleIndex, union []graph.Edge) *MaskEdges {
	me := &MaskEdges{}
	for t := 0; t < view.Len(); t++ {
		tri := view.Tris[t]
		me.tri = append(me.tri,
			edgeIndexOf(union, tri.A, tri.B),
			edgeIndexOf(union, tri.A, tri.C),
			edgeIndexOf(union, tri.B, tri.C))
		for _, z := range view.Comps[t] {
			for _, e := range [3]graph.Edge{{U: tri.A, V: z}, {U: tri.B, V: z}, {U: tri.C, V: z}} {
				e = e.Canon()
				me.comp = append(me.comp, edgeIndexOf(union, e.U, e.V))
			}
		}
	}
	return me
}

// TriEdge returns the union id of view triangle t's i-th edge (i < 3).
func (me *MaskEdges) TriEdge(t, i int) int32 { return me.tri[3*t+i] }

// MaskQualifying is the reference form of MaskQualifyingAlive: the same
// Definition 4 predicate over a union-world bitmask, with triangle and
// 4-clique survival read from their own edge bits instead of a shared
// aliveness row. It needs no BindAliveness, only Seed and the candidate's
// MaskEdges.
func (wc *WorldChecker) MaskQualifying(seed *WorldCheckSeed, me *MaskEdges, mask []uint64) ([]int32, bool) {
	if !wc.maskConnected(seed, mask) {
		return nil, false
	}
	has3 := func(ids []int32, b int) bool {
		return maskHas(mask, ids[b]) && maskHas(mask, ids[b+1]) && maskHas(mask, ids[b+2])
	}
	var out []int32
	for t := 0; t < seed.m; t++ {
		if has3(me.tri, 3*t) {
			out = append(out, int32(t))
		}
	}
	if seed.k == 0 {
		return out, true
	}
	if len(out) == 0 {
		return nil, false
	}
	for _, t := range out {
		cnt := 0
		for j := seed.compOff[t]; j < seed.compOff[t+1]; j++ {
			if has3(me.comp, 3*int(j)) {
				cnt++
			}
		}
		if cnt < seed.k {
			return nil, false
		}
	}
	wc.u.Reset(seed.m)
	for _, t := range out {
		for j := seed.compOff[t]; j < seed.compOff[t+1]; j++ {
			if b := 3 * int(j); has3(me.comp, b) {
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

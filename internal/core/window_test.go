package core

import (
	"reflect"
	"slices"
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/decomp"
	"probnucleus/internal/fixtures"
	"probnucleus/internal/graph"
	"probnucleus/internal/mc"
	"probnucleus/internal/par"
	"probnucleus/internal/probgraph"
)

// windowDiffCase is one corpus entry of the streaming differential tests:
// an mcDiffCases-style case plus its own window-size list. Windows are
// per-case because a windowed run re-seeds every live candidate per window — the
// tiny-window geometries (1, 7) are exercised on the small fixtures where
// that is cheap, while the dataset cases cover chunk-straddling, exact-fit,
// chunk-aligned, and oversized (clamped-to-full) windows.
type windowDiffCase struct {
	name    string
	pg      *probgraph.Graph
	k       int
	theta   float64
	samples int
	seed    int64
	windows []int
}

// windowDiffCases is the corpus the windowed differential tests run over.
// The comparison is windowed-vs-full at identical options, so it needs no
// golden anchoring.
func windowDiffCases() []windowDiffCase {
	return []windowDiffCase{
		{"fig1", fixtures.Fig1(), 1, 0.35, 96, 5,
			[]int{1, 7, 16, 41, 95, 96, 196}},
		{"krogan", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 1, 0.001, 96, 1,
			[]int{1, 41, 64, 196}},
		{"dblp", dataset.Generate(dataset.MustLoad("dblp", dataset.Scale(0.025))), 1, 0.001, 48, 3,
			[]int{17, 48}},
	}
}

// TestGlobalNucleiWindowedDifferential: streaming the shared bank through
// fixed-size windows (MCOptions.Window) returns nuclei byte-identical to the
// one-window run — same sets, same estimated MinProb — for every window size
// and worker count. Every window re-draws its worlds from the same
// chunk-derived PRNG streams, the carried counts are the same integers, and
// early rejection only drops candidates that fail anyway, so nothing may
// differ.
func TestGlobalNucleiWindowedDifferential(t *testing.T) {
	for _, c := range windowDiffCases() {
		// One pruning decomposition per case: every run below shares it, so
		// the re-runs pay for the windowed validation alone.
		local, err := LocalDecompose(c.pg, c.theta, Options{Mode: ModeDP, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		base, err := GlobalNuclei(c.pg, c.k, c.theta,
			MCOptions{Samples: c.samples, Seed: c.seed, Workers: 1, Local: local})
		if err != nil {
			t.Fatal(err)
		}
		if c.name == "fig1" && len(base) == 0 {
			t.Fatal("full-bank run found no nuclei; differential test is vacuous")
		}
		for _, win := range c.windows {
			for _, w := range diffWorkerCounts {
				if win == 1 && w != 1 {
					continue // single-world windows: serial comparison suffices
				}
				got, err := GlobalNuclei(c.pg, c.k, c.theta,
					MCOptions{Samples: c.samples, Seed: c.seed, Workers: w, Window: win, Local: local})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s window=%d workers=%d: global nuclei differ from full bank:\n got %+v\nwant %+v",
						c.name, win, w, got, base)
				}
			}
		}
	}
}

// TestWeaklyGlobalNucleiWindowedDifferential: same contract for w-NuDecomp —
// the unified windowed kernel at any Window reproduces the one-window run.
func TestWeaklyGlobalNucleiWindowedDifferential(t *testing.T) {
	for _, c := range windowDiffCases() {
		theta := c.theta
		if c.name == "fig1" {
			theta = 0.38
		}
		local, err := LocalDecompose(c.pg, theta, Options{Mode: ModeDP, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		base, err := WeaklyGlobalNuclei(c.pg, c.k, theta,
			MCOptions{Samples: c.samples, Seed: c.seed, Workers: 1, Local: local})
		if err != nil {
			t.Fatal(err)
		}
		if c.name == "fig1" && len(base) == 0 {
			t.Fatal("full-bank run found no nuclei; differential test is vacuous")
		}
		for _, win := range c.windows {
			for _, w := range diffWorkerCounts {
				if win == 1 && w != 1 {
					continue // single-world windows: serial comparison suffices
				}
				got, err := WeaklyGlobalNuclei(c.pg, c.k, theta,
					MCOptions{Samples: c.samples, Seed: c.seed, Workers: w, Window: win, Local: local})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s window=%d workers=%d: weak nuclei differ from full bank:\n got %+v\nwant %+v",
						c.name, win, w, got, base)
				}
			}
		}
	}
}

// TestGlobalKernelMatchesExhaustiveReference: the window-major kernel, with
// its early rejection, must report exactly the nuclei — verdicts and MinProb
// — of a reference that checks every candidate against every world with the
// graph form of the world predicate and no rejection at all, for every
// window cut. The corpus must also make the kernel reject some candidate
// before its last window, so the rejection path is what is being compared.
func TestGlobalKernelMatchesExhaustiveReference(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04)))
	local, err := LocalDecompose(pg, 0.1, Options{Mode: ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs := newCandidateSpace(local, 1)
	if len(cs.triangles) < 4 {
		t.Fatalf("fixture too small: %d candidate triangles", len(cs.triangles))
	}
	pool := par.NewPool(2)
	defer pool.Close()
	nv := pg.NumVertices()
	union := appendTriangleEdges(nil, cs.ti, cs.triangles)
	const n, seed = 32, 7
	masks, words := mc.WorldMasksPool(pool, pg.SubgraphOfEdges(union), n, seed)
	worlds := make([]*graph.Graph, n)
	for w := range worlds {
		var es []graph.Edge
		for ei, e := range union {
			if masks[w*words+ei/64]&(1<<(uint(ei)%64)) != 0 {
				es = append(es, e)
			}
		}
		worlds[w] = graph.FromSortedEdges(nv, es)
	}

	// Reference counts: per candidate (in seed order, as the kernel
	// enumerates them), each view triangle's number of qualifying worlds.
	var seen triSetDedup
	var closures, counts [][]int32
	var sub graph.SubIndexScratch
	var wc decomp.WorldChecker
	for _, s := range cs.triangles {
		closure := cs.closure(s, 1)
		if !seen.insert(closure) {
			continue
		}
		edges := appendTriangleEdges(nil, cs.ti, closure)
		h := graph.FromSortedEdges(nv, edges)
		view := cs.ti.SubIndex(h, &sub)
		wc.Reset(view, h)
		verts := appendPositiveDegree(nil, h)
		cnt := make([]int32, view.Len())
		for _, world := range worlds {
			if ids, ok := wc.QualifyingTriangles(world, verts, 1); ok {
				for _, id := range ids {
					cnt[id]++
				}
			}
		}
		closures = append(closures, slices.Clone(closure))
		counts = append(counts, cnt)
	}

	passed, failed, early := 0, 0, 0
	for _, theta := range []float64{0.05, 0.3, 0.8} {
		var want []ProbNucleus
		for c, cnt := range counts {
			minProb, ok := 1.0, true
			for _, x := range cnt {
				p := float64(x) / float64(n)
				minProb = min(minProb, p)
				ok = ok && p >= theta
			}
			if ok {
				want = append(want, buildProbNucleus(cs.ti, closures[c], 1, theta, minProb))
				passed++
			} else {
				failed++
			}
		}
		sortNuclei(want)
		for _, win := range []int{1, 7, n} {
			got, rejected, err := globalNuclei(pg, 1, theta,
				MCOptions{Samples: n, Seed: seed, Window: win, Local: local, Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("θ=%v window=%d: kernel found %d nuclei, reference %d (or their MinProb differ)",
					theta, win, len(got), len(want))
			}
			early += rejected
		}
	}
	if passed == 0 || failed == 0 {
		t.Fatalf("fixture vacuous: %d candidate verdicts passed, %d failed", passed, failed)
	}
	if early == 0 {
		t.Fatal("no candidate was rejected before its last window; the comparison does not cover early rejection")
	}
	t.Logf("%d candidates: %d verdicts passed, %d failed, %d early rejections", len(counts), passed, failed, early)
}

package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"

	pn "probnucleus"
)

// Request classes.
const (
	classGlobal  = "global"   // g-(k,θ)-nuclei
	classWeak    = "weak"     // w-(k,θ)-nuclei
	classLocal   = "local"    // ℓ-decomposition, exact DP tails
	classLocalAP = "local_ap" // ℓ-decomposition, approximate tails
	classPut     = "put"      // replace a registered graph from an edge list
)

// request is one operation of a workload's schedule. The program sees only
// what the request carries; everything in it is drawn from the workload
// seed.
type request struct {
	ID      int64
	Class   string
	Graph   string
	Theta   float64
	Mode    pn.Mode
	Seed    int64 // Monte-Carlo seed
	Variant int   // put: which edge-list variant of Graph it installs
	// Due is the open-loop send time, as an offset from the phase start.
	Due time.Duration
}

// graphSpec is a calibrated dataset at a fixed scale. Its structure, and so
// the work every request does, is the same for every workload seed; the
// seed relabels its vertices and reorders its edges.
type graphSpec struct {
	Name  string
	Scale float64
}

// subSeed derives an independent stream seed for one use of the workload
// seed.
func subSeed(seed int64, tag string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, tag)
	return int64(h.Sum64() >> 1)
}

// edgeList renders the dataset as a `u v p` edge list under a vertex
// relabelling and an edge order drawn from seed. Probabilities are written
// so that they parse back to the same float64.
func edgeList(g graphSpec, seed int64) ([]byte, error) {
	cfg, err := pn.LoadDataset(g.Name, g.Scale)
	if err != nil {
		return nil, err
	}
	pg := pn.GenerateDataset(cfg)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(pg.NumVertices())
	edges := pg.Edges()
	order := rng.Perm(len(edges))
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# %s@%g relabelled by seed %d\n", g.Name, g.Scale, seed)
	line := make([]byte, 0, 64)
	for _, i := range order {
		e := edges[i]
		line = strconv.AppendInt(line[:0], int64(perm[e.U]), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(perm[e.V]), 10)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, e.P, 'g', -1, 64)
		line = append(line, '\n')
		buf.Write(line)
	}
	return buf.Bytes(), nil
}

// Pool sizes. Requests of a class cycle through a pool of Monte-Carlo
// seeds, and puts through a pool of edge-list variants, so that each median
// rests on several distinct computations while every distinct answer still
// needs only one reference computation after the run. Weak requests on
// mc-krogan take a fresh seed each: their cost varies by seed by up to a
// third, and their references are cheap.
const (
	mcSeeds     = 12 // global requests on mc-krogan
	serveSeeds  = 4  // per class on serve-mix
	putVariants = 8  // edge-list variants that puts install, besides the initial one
)

// seedPool draws n distinct Monte-Carlo seeds.
func seedPool(rng *rand.Rand, n int) []int64 {
	pool := make([]int64, 0, n)
	seen := make(map[int64]bool)
	for len(pool) < n {
		s := rng.Int63n(1 << 40)
		if !seen[s] {
			seen[s] = true
			pool = append(pool, s)
		}
	}
	return pool
}

// cycler hands out a pool's values in blocks, each block a fresh seeded
// permutation, so every value appears equally often in any window.
type cycler[T any] struct {
	rng   *rand.Rand
	pool  []T
	block []int
}

func (c *cycler[T]) next() T {
	if len(c.block) == 0 {
		c.block = c.rng.Perm(len(c.pool))
	}
	v := c.pool[c.block[0]]
	c.block = c.block[1:]
	return v
}

// mcSchedule is the batch Monte-Carlo user's closed loop at θ: one global
// request, with a seed from its pool, then two weak ones, each with a seed
// of its own. Two weak requests per global one give the weak class enough
// samples for its lower quartile (side_ms) even in a slow run.
func mcSchedule(seed int64, graph string, theta float64, n int) []request {
	rng := rand.New(rand.NewSource(subSeed(seed, "mc")))
	g := &cycler[int64]{rng: rng, pool: seedPool(rng, mcSeeds)}
	w := &cycler[int64]{rng: rng, pool: seedPool(rng, n)}
	out := make([]request, n)
	for i := range out {
		r := request{ID: int64(i + 1), Class: classWeak, Graph: graph, Theta: theta, Seed: w.next()}
		if i%3 == 0 {
			r.Class, r.Seed = classGlobal, g.next()
		}
		out[i] = r
	}
	return out
}

// sweepThetas are the θ-sweep's strata; each run jitters them by the seed.
var sweepThetas = []float64{0.05, 0.2, 0.45}

// sweepSchedule is the θ-sweep user's closed loop: exact (DP) and
// approximate (AP) local decompositions alternate, each mode cycling
// through the seed-jittered θ grid.
func sweepSchedule(seed int64, graph string, n int) []request {
	rng := rand.New(rand.NewSource(subSeed(seed, "sweep")))
	grid := make([]float64, len(sweepThetas))
	for i, th := range sweepThetas {
		// Round to 1e-4 so θ prints exactly in reports.
		grid[i] = float64(int((th+rng.Float64()*0.04-0.02)*1e4+0.5)) / 1e4
	}
	dp := &cycler[float64]{rng: rng, pool: grid}
	ap := &cycler[float64]{rng: rng, pool: grid}
	out := make([]request, n)
	for i := range out {
		r := request{ID: int64(i + 1), Class: classLocal, Graph: graph, Mode: pn.ModeDP, Theta: dp.next()}
		if i%2 == 1 {
			r.Class, r.Mode, r.Theta = classLocalAP, pn.ModeAP, ap.next()
		}
		out[i] = r
	}
	return out
}

// serveMix fixes the server traffic mix. Every class is at least 5 % of
// requests, so no reported percentile sits on a class boundary.
type serveMix struct {
	Rate       float64 // requests per second
	PLocal     float64
	PWeak      float64
	PGlobal    float64 // the rest are puts
	LocalGraph []string
	WeakGraph  string
	GlobGraph  string
	PutGraph   string
	NucleiTh   float64
	// LocalTheta and LocalWeight are the skewed θ grid of local queries.
	LocalTheta  []float64
	LocalWeight []float64
}

// serveSchedule draws an open-loop schedule over d: Poisson arrivals at the
// mix's rate, each with a class, graph and parameters drawn from the seed.
// Puts cycle their graph through its edge-list variants 1..putVariants.
func serveSchedule(seed int64, m serveMix, d time.Duration) []request {
	rng := rand.New(rand.NewSource(subSeed(seed, "serve")))
	gSeeds := &cycler[int64]{rng: rng, pool: seedPool(rng, serveSeeds)}
	wSeeds := &cycler[int64]{rng: rng, pool: seedPool(rng, serveSeeds)}
	variants := make([]int, putVariants)
	for i := range variants {
		variants[i] = i + 1
	}
	puts := &cycler[int]{rng: rng, pool: variants}
	var out []request
	t := 0.0
	for id := int64(1); ; id++ {
		t += rng.ExpFloat64() / m.Rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		r := request{ID: id, Due: due}
		switch u := rng.Float64(); {
		case u < m.PLocal:
			r.Class, r.Mode = classLocal, pn.ModeDP
			r.Graph = m.LocalGraph[rng.Intn(len(m.LocalGraph))]
			r.Theta = pick(rng, m.LocalTheta, m.LocalWeight)
		case u < m.PLocal+m.PWeak:
			r.Class, r.Graph, r.Theta, r.Seed = classWeak, m.WeakGraph, m.NucleiTh, wSeeds.next()
		case u < m.PLocal+m.PWeak+m.PGlobal:
			r.Class, r.Graph, r.Theta, r.Seed = classGlobal, m.GlobGraph, m.NucleiTh, gSeeds.next()
		default:
			r.Class, r.Graph, r.Variant = classPut, m.PutGraph, puts.next()
		}
		out = append(out, r)
	}
}

func pick(rng *rand.Rand, vals, weights []float64) float64 {
	u := rng.Float64()
	for i, w := range weights {
		if u < w {
			return vals[i]
		}
		u -= w
	}
	return vals[len(vals)-1]
}

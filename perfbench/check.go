package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"sort"

	pn "probnucleus"
)

// Answers are deterministic for fixed inputs and seeds, so each one is
// reduced to a digest and compared with the digest of the same request
// computed by the package-level functions on a freshly parsed graph.

type digester struct{ h hash.Hash64 }

func newDigester() digester { return digester{fnv.New64a()} }

func (d digester) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digester) float(v float64) { d.int(int64(math.Float64bits(v))) }

// digestLocal covers θ and every triangle with its nucleusness, in the
// result's triangle order.
func digestLocal(res *pn.LocalResult) uint64 {
	d := newDigester()
	d.float(res.Theta)
	d.int(int64(len(res.Nucleusness)))
	for i, t := range res.TI.Tris {
		d.int(int64(t.A)<<42 | int64(t.B)<<21 | int64(t.C))
		d.int(int64(res.Nucleusness[i]))
	}
	return d.h.Sum64()
}

// digestNuclei covers every nucleus's level, threshold, vertices, edges,
// triangles and estimated probability, independent of the nuclei's order.
func digestNuclei(ns []pn.ProbNucleus) uint64 {
	each := make([]uint64, len(ns))
	for i, n := range ns {
		d := newDigester()
		d.int(int64(n.K))
		d.float(n.Theta)
		d.float(n.MinProb)
		for _, v := range n.Vertices {
			d.int(int64(v))
		}
		d.int(-1)
		for _, e := range n.Edges {
			d.int(int64(e.U)<<32 | int64(e.V))
		}
		d.int(-1)
		for _, t := range n.Triangles {
			d.int(int64(t.A)<<42 | int64(t.B)<<21 | int64(t.C))
		}
		each[i] = d.h.Sum64()
	}
	sort.Slice(each, func(i, j int) bool { return each[i] < each[j] })
	d := newDigester()
	for _, x := range each {
		d.int(int64(x))
	}
	return d.h.Sum64()
}

// checkLocal checks that a local result covers every triangle of the
// prepared graph, at the requested θ.
func checkLocal(res *pn.LocalResult, triangles int, theta float64) error {
	switch {
	case res == nil:
		return fmt.Errorf("nil local result")
	case res.Theta != theta:
		return fmt.Errorf("local result at θ=%g, asked %g", res.Theta, theta)
	case res.TI.Len() != triangles || len(res.Nucleusness) != triangles:
		return fmt.Errorf("local result covers %d/%d triangles of %d", res.TI.Len(), len(res.Nucleusness), triangles)
	}
	for _, v := range res.Nucleusness {
		if v < -1 {
			return fmt.Errorf("nucleusness %d below -1", v)
		}
	}
	return nil
}

// checkNuclei checks that every reported nucleus is at the requested level
// and has MinProb ≥ θ.
func checkNuclei(ns []pn.ProbNucleus, k int, theta float64) error {
	for i, n := range ns {
		if n.K != k || n.Theta != theta {
			return fmt.Errorf("nucleus %d is a (%d,%g)-nucleus, asked (%d,%g)", i, n.K, n.Theta, k, theta)
		}
		if !(n.MinProb >= theta) {
			return fmt.Errorf("nucleus %d has MinProb %g < θ=%g", i, n.MinProb, theta)
		}
		if len(n.Triangles) == 0 {
			return fmt.Errorf("nucleus %d has no triangles", i)
		}
	}
	return nil
}

// refKey names one distinct answer: a request's parameters and the edge-list
// variant of the graph it ran on.
type refKey struct {
	Class   string
	Graph   string
	Variant int
	Theta   float64
	Seed    int64
}

func keyOf(r request, variant int) refKey {
	k := refKey{Class: r.Class, Graph: r.Graph, Variant: variant, Theta: r.Theta}
	if r.Class == classGlobal || r.Class == classWeak {
		k.Seed = r.Seed
	}
	return k
}

// references computes reference digests on demand, each once, outside any
// timed phase.
type references struct {
	texts   map[string][][]byte // graph → edge-list variants
	k       int
	samples int
	done    map[refKey]uint64
}

func newReferences(texts map[string][][]byte, k, samples int) *references {
	return &references{texts: texts, k: k, samples: samples, done: make(map[refKey]uint64)}
}

func (rf *references) digest(key refKey) (uint64, error) {
	if d, ok := rf.done[key]; ok {
		return d, nil
	}
	vs := rf.texts[key.Graph]
	if key.Variant >= len(vs) {
		return 0, fmt.Errorf("no variant %d of %q", key.Variant, key.Graph)
	}
	pg, err := pn.ReadEdgeList(bytes.NewReader(vs[key.Variant]))
	if err != nil {
		return 0, err
	}
	mc := pn.MCOptions{Samples: rf.samples, Seed: key.Seed}
	var d uint64
	switch key.Class {
	case classLocal, classLocalAP:
		mode := pn.ModeDP
		if key.Class == classLocalAP {
			mode = pn.ModeAP
		}
		res, err := pn.LocalDecompose(pg, key.Theta, pn.Options{Mode: mode})
		if err != nil {
			return 0, err
		}
		d = digestLocal(res)
	case classGlobal:
		ns, err := pn.GlobalNuclei(pg, rf.k, key.Theta, mc)
		if err != nil {
			return 0, err
		}
		d = digestNuclei(ns)
	case classWeak:
		ns, err := pn.WeaklyGlobalNuclei(pg, rf.k, key.Theta, mc)
		if err != nil {
			return 0, err
		}
		d = digestNuclei(ns)
	default:
		return 0, fmt.Errorf("no reference for class %q", key.Class)
	}
	rf.done[key] = d
	return d, nil
}

// match reports whether digest equals the reference of r on any of the
// variants its graph may have had while it ran.
func (rf *references) match(r request, variants []int, digest uint64) (bool, error) {
	for _, v := range variants {
		want, err := rf.digest(keyOf(r, v))
		if err != nil {
			return false, err
		}
		if want == digest {
			return true, nil
		}
	}
	return false, nil
}

// figure1 is the running example of the paper (Figure 1a).
func figure1() (*pn.Graph, error) {
	return pn.NewGraph(8, []pn.ProbEdge{
		{U: 1, V: 2, P: 1}, {U: 1, V: 3, P: 1}, {U: 1, V: 4, P: 1}, {U: 1, V: 5, P: 1},
		{U: 2, V: 3, P: 1}, {U: 2, V: 5, P: 1},
		{U: 2, V: 4, P: 0.7}, {U: 3, V: 4, P: 0.6}, {U: 3, V: 5, P: 0.5},
		{U: 1, V: 7, P: 0.8}, {U: 4, V: 6, P: 0.8}, {U: 6, V: 7, P: 0.8},
	})
}

// checkAnchors checks the paper's Figure 3 on the Figure 1 graph: the
// ℓ-(1,0.42)-nucleus is {1,2,3,4,5}, and the g-(1,0.35)-nuclei are
// {1,2,3,5} with Pr̂ ≈ 0.5 and {1,2,3,4} with Pr̂ ≈ 0.42.
func checkAnchors() error {
	g, err := figure1()
	if err != nil {
		return err
	}
	res, err := pn.LocalDecompose(g, 0.42, pn.Options{Mode: pn.ModeDP})
	if err != nil {
		return err
	}
	local := res.NucleiForK(1)
	if len(local) != 1 || !reflect.DeepEqual(local[0].Vertices, []int32{1, 2, 3, 4, 5}) {
		return fmt.Errorf("ℓ-(1,0.42)-nuclei %v, want one on [1 2 3 4 5]", local)
	}
	glob, err := pn.GlobalNuclei(g, 1, 0.35, pn.MCOptions{Samples: 2000, Seed: 1})
	if err != nil {
		return err
	}
	want := map[string]float64{"[1 2 3 5]": 0.5, "[1 2 3 4]": 0.42}
	if len(glob) != len(want) {
		return fmt.Errorf("%d g-(1,0.35)-nuclei, want %d", len(glob), len(want))
	}
	for _, n := range glob {
		p, ok := want[fmt.Sprint(n.Vertices)]
		if !ok || math.Abs(n.MinProb-p) > 0.03 {
			return fmt.Errorf("g-(1,0.35)-nucleus %v with Pr̂ %.3f is not in Figure 3", n.Vertices, n.MinProb)
		}
	}
	return nil
}

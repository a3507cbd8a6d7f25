package main

import (
	"fmt"
	"runtime"
	"time"

	pn "probnucleus"
)

// report is everything one run measured, printed as a line before the result
// and written to the output directory.
type report struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Traced     bool                 `json:"traced"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Inputs     map[string]inputSize `json:"inputs"`
	// Classes counts the timed phase's requests by class; "hit" counts the
	// local requests the cache answered.
	Classes  map[string]int     `json:"classes"`
	SetupS   []float64          `json:"setup_s"`
	Timings  map[string]summary `json:"timings_ms"`
	EndToEnd map[string]metric  `json:"end_to_end"`
	PerLayer map[string]metric  `json:"per_layer,omitempty"`
	Load     engineLoad         `json:"load"`
	Profile  *profile           `json:"profile,omitempty"`
	Errors   []string           `json:"errors,omitempty"`

	lat       map[string][]float64
	completed int // timed requests that succeeded
}

// Timing names in the report: the request classes, with local requests
// split into computed ("local") and cache hits ("hit"), every query
// ("query"), and how late the open-loop generator sent ("lateness").
const (
	timingHit      = "hit"
	timingQuery    = "query"
	timingLateness = "lateness"
)

func newReport(w workload, r *run, seed int64, traced bool) *report {
	rep := &report{
		Workload: w.name, Seed: seed, Traced: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Inputs:     r.sizes,
		Classes:    make(map[string]int),
		Timings:    make(map[string]summary),
		lat:        make(map[string][]float64),
	}
	for _, o := range r.outs {
		if !o.timed {
			continue
		}
		rep.Classes[o.req.Class]++
		if o.err != nil {
			continue
		}
		rep.completed++
		c := o.req.Class
		if o.hit {
			c = timingHit
			rep.Classes[timingHit]++
		}
		rep.lat[c] = append(rep.lat[c], o.latMs)
		if o.req.Class != classPut {
			rep.lat[timingQuery] = append(rep.lat[timingQuery], o.latMs)
		}
	}
	if late := r.calls["lateness_ms"]; len(late) > 0 {
		rep.lat[timingLateness] = late
	}
	for c, xs := range rep.lat {
		rep.Timings[c] = summarize(xs)
	}
	return rep
}

// endToEnd computes the metrics a user of the workload sees.
func (rep *report) endToEnd(w workload, elapsed time.Duration, rssMB float64, attempted, failed int) (map[string]metric, error) {
	mainP50, err := percentile(rep.lat[w.main], 0.5)
	if err != nil {
		return nil, fmt.Errorf("main_p50_ms (%s): %w", w.main, err)
	}
	side, err := percentile(rep.lat[w.side], w.sideQ)
	if err != nil {
		return nil, fmt.Errorf("side_ms (%s): %w", w.side, err)
	}
	return map[string]metric{
		"setup_s":        {Value: median(rep.SetupS), Unit: "s", N: len(rep.SetupS)},
		"throughput_rps": {Value: float64(rep.completed) / elapsed.Seconds(), Unit: "1/s", N: rep.completed},
		"ok_ratio":       {Value: float64(attempted-failed) / float64(attempted), Unit: "ratio", N: attempted},
		"peak_rss_mb":    {Value: rssMB, Unit: "MB"},
		"main_p50_ms":    {Value: mainP50, Unit: "ms", N: len(rep.lat[w.main])},
		"side_ms":        {Value: side, Unit: "ms", N: len(rep.lat[w.side])},
	}, nil
}

// reqSum is the observer's count, summed latency and summed queue wait (ms)
// of engine requests of one semantics.
type reqSum struct {
	N         int64
	Lat, Wait float64
}

// requestSums reads the sums of every semantics between two snapshots.
func requestSums(before, after pn.EngineSnapshot) map[string]reqSum {
	out := make(map[string]reqSum)
	add := func(snap pn.EngineSnapshot, sign int64) {
		for _, r := range snap.Requests {
			s := out[r.Semantics]
			s.N += sign * r.Latency.Count
			s.Lat += float64(sign) * r.Latency.MeanMs * float64(r.Latency.Count)
			s.Wait += float64(sign) * r.QueueWait.MeanMs * float64(r.QueueWait.Count)
			out[r.Semantics] = s
		}
	}
	add(after, 1)
	add(before, -1)
	return out
}

// engineLoad is how busy the engine was over the timed phase.
type engineLoad struct {
	OfferedRPS float64 `json:"offered_rps,omitempty"` // open loop only
	// ShardBusy is engine run time (latency minus queue wait) over shards ×
	// the phase's length.
	ShardBusy      float64 `json:"shard_busy"`
	QueueWaitShare float64 `json:"queue_wait_share"` // queue wait over engine latency
}

func loadOf(shards int, before, after pn.EngineSnapshot, elapsed time.Duration) engineLoad {
	var lat, wait float64
	for _, s := range requestSums(before, after) {
		lat += s.Lat
		wait += s.Wait
	}
	return engineLoad{
		ShardBusy:      safeDiv(lat-wait, float64(shards)*float64(elapsed.Milliseconds())),
		QueueWaitShare: safeDiv(wait, lat),
	}
}

// tailMethods are the support-tail evaluators LocalRequest.MethodCounts
// reports.
var tailMethods = []string{"DP", "CLT", "Poisson", "TranslatedPoisson", "Binomial"}

// perLayer computes the traced run's per-layer metrics: call timings taken
// around each layer's exported functions, the observer's counters over the
// timed phase (per timed request where they are counts), and the span
// profile.
func (rep *report) perLayer(w workload, r *run, before, after pn.EngineSnapshot) map[string]metric {
	reqs := make(map[int64]bool)
	for _, o := range r.outs {
		if o.timed {
			reqs[o.req.ID] = true
		}
	}
	n := float64(len(reqs))
	unattributed := attribute(r.tr, r.tr.causes, r.log.events)
	p := layerProfile(r.tr.spans, reqs)
	rep.Profile = &p

	d := requestSums(before, after)
	kernelMs := d[evLocal].Lat + d[evGlobal].Lat + d[evWeak].Lat
	var latMs float64
	for _, s := range d {
		latMs += s.Lat
	}
	lookups := (after.CacheHits - before.CacheHits) + (after.CacheMisses - before.CacheMisses) +
		(after.CacheCoalesced - before.CacheCoalesced)

	prep := requestSums(pn.EngineSnapshot{}, after)[evPrepare]
	saveMs, saveBytes := mean(r.calls["save_ms"]), mean(r.calls["save_bytes"])
	if after.ArtifactSaves > 0 {
		saveMs = after.ArtifactSaveLatency.MeanMs
		saveBytes = float64(after.ArtifactSavedBytes) / float64(after.ArtifactSaves)
	}
	tris, cliques := 0, 0
	for _, s := range r.sizes {
		tris += s.Triangles
		cliques += s.Cliques
	}
	ms := func(v float64, samples int) metric { return metric{Value: v, Unit: "ms", N: samples} }
	ratio := func(v float64) metric { return metric{Value: v, Unit: "ratio"} }
	perReq := func(v int64) metric { return metric{Value: float64(v) / n, Unit: "count/req"} }
	count := func(v int64) metric { return metric{Value: float64(v), Unit: "count"} }

	m := map[string]metric{
		"probgraph.parse_ms":    ms(median(r.calls["parse_ms"]), len(r.calls["parse_ms"])),
		"probgraph.bytes":       {Value: median(r.calls["parse_bytes"]), Unit: "B"},
		"graph.prepare_ms":      ms(safeDiv(prep.Lat, float64(prep.N)), int(prep.N)),
		"graph.triangles":       count(int64(tris)),
		"graph.cliques":         count(int64(cliques)),
		"artifact.save_ms":      ms(saveMs, int(after.ArtifactSaves)+len(r.calls["save_ms"])),
		"artifact.bytes":        {Value: saveBytes, Unit: "B"},
		"artifact.load_ms":      ms(median(r.calls["load_ms"]), len(r.calls["load_ms"])),
		"registry.hit_ratio":    ratio(safeDiv(float64(after.CacheHits-before.CacheHits), float64(lookups))),
		"registry.coalesced":    count(after.CacheCoalesced - before.CacheCoalesced),
		"registry.evictions":    count(after.CacheEvictions - before.CacheEvictions),
		"core.queue_wait_share": ratio(rep.Load.QueueWaitShare),
		"core.ms_per_request":   ms(kernelMs/n, len(reqs)),
		"decomp.peel_rounds":    perReq(after.PeelRounds - before.PeelRounds),
		"decomp.candidates":     perReq(after.Candidates - before.Candidates),
		"decomp.candidate_tris": perReq(after.CandidateTris - before.CandidateTris),
		"mc.worlds":             perReq(after.Worlds - before.Worlds),
		"mc.bank_peak_bytes":    {Value: float64(after.BankPeakBytes), Unit: "B"},
		"par.round_share":       ratio(safeDiv(after.PoolTimeMs-before.PoolTimeMs, latMs)),
		"trace.coverage":        ratio(p.Coverage),
		"trace.overhead_ms":     ms(float64(r.tr.overhead.Load())/1e6/float64(len(r.outs)), len(r.outs)),
		"trace.unattributed":    count(unattributed),
		"trace.main_p50_ms":     ms(rep.p50(w.main), len(rep.lat[w.main])),
	}
	for _, l := range layers {
		m[l+".share"] = ratio(p.Share[l])
	}
	for _, t := range tailMethods {
		m["pbd.tails."+t] = perReq(int64(r.tails[t]))
	}
	return m
}

// p50 is the median of a class's latencies, or 0 when there are too few.
func (rep *report) p50(class string) float64 {
	v, _ := percentile(rep.lat[class], 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Command perfbench is the repository's benchmark. It runs one named
// workload against the public probnucleus API in this process, checks every
// answer, and prints its metrics: a report line, then one JSON result line.
//
//	go run . -workload mc-krogan -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics. With -trace 1 the
// same workload and schedule run with a span around every layer call, and
// the result carries the per-layer metrics; the spans are written to the
// output directory. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	pn "probnucleus"
)

const (
	// Set-ups repeat until both bounds are reached; setup_s is their median.
	setupMin    = 20
	setupBudget = 2 * time.Second
	serveWarm   = 3 * time.Second // open-loop warm-up before the timed phase
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a timing
}

// result is the last line of standard output. Its metrics hold exactly a
// value and a unit; the sample counts are in the report line before it.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value floatValue `json:"value"`
	Unit  string     `json:"unit"`
}

// floatValue is written with all its digits and always as a JSON float, so
// a whole value such as an ok_ratio of 1 reads as 1.0.
type floatValue float64

func (v floatValue) MarshalJSON() ([]byte, error) {
	f := float64(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("metric value %v is not a finite number", f)
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return []byte(s), nil
}

// newResult builds the result line from the run's metrics.
func newResult(failed, attempted int, metrics map[string]metric) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]resultMetric, len(metrics))}
	for name, m := range metrics {
		res.Metrics[name] = resultMetric{Value: floatValue(m.Value), Unit: m.Unit}
	}
	return res
}

func main() {
	if err := runMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain() error {
	var (
		name    = flag.String("workload", "", "workload name: mc-krogan, sweep-flickr or serve-mix")
		seed    = flag.Int64("seed", 1, "workload seed: inputs, θ and Monte-Carlo seeds, arrivals and puts")
		seconds = flag.Float64("seconds", 30, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
		out     = flag.String("out", ".bench_build/run", "directory for artifacts, spans and reports")
		rate    = flag.Float64("rate", 0, "serve-mix arrival rate in requests/s; 0 keeps the workload's")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *rate < 0 {
		return fmt.Errorf("want -seconds > 0, -trace 0 or 1 and -rate ≥ 0")
	}
	if *rate > 0 {
		mix.Rate = *rate
	}
	traced := *trace == 1
	ctx := context.Background()
	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d-pid%d", w.name, *seed, *trace, os.Getpid()))
	defer removeAll(base)

	// Set-up: generate the inputs and register or prepare every graph. The
	// set-up that serves the run comes first; more follow the timed phase,
	// away from the start of the process, until there are enough for a
	// steady median.
	var setups []float64
	setup := func() (*run, error) {
		dir := filepath.Join(base, fmt.Sprintf("setup%d", len(setups)))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		r := newRun(*seed, dir)
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		if err := w.setup(ctx, r); err != nil {
			r.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return r, nil
	}
	r, err := setup()
	if err != nil {
		return err
	}
	defer r.close()

	anchorErr := checkAnchors()
	if traced {
		r.trace()
	}
	runtime.GC()
	var before pn.EngineSnapshot
	elapsed := w.loop(ctx, r, serveWarm, time.Duration(*seconds*float64(time.Second)), func() { before = r.m.Snapshot() })
	after := r.m.Snapshot()
	rss := peakRSSMB() // before the reference computations and set-ups below add theirs
	for began := time.Now(); len(setups) < setupMin || time.Since(began) < setupBudget; {
		extra, err := setup()
		if err != nil {
			return err
		}
		extra.close()
		removeAll(extra.dir)
	}

	// Outside the timed phase: reload the persisted artifacts, then check
	// every answer against its reference.
	if err := r.loadArtifacts(); err != nil {
		return err
	}
	failed, errs := r.verify(newReferences(r.texts, nucleusK, mcSamples))
	attempted := len(r.outs) + 1 // every request, and the anchor check
	if anchorErr != nil {
		failed++
		errs = append(errs, "Figure 3 anchors: "+anchorErr.Error())
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}

	rep := newReport(w, r, *seed, traced)
	rep.SetupS = setups
	rep.Load = loadOf(r.shards, before, after, elapsed)
	if w.name == "serve-mix" {
		rep.Load.OfferedRPS = mix.Rate
	}
	rep.Errors = errs
	e2e, err := rep.endToEnd(w, elapsed, rss, attempted, failed)
	if err != nil {
		return err
	}
	metrics := e2e
	if traced {
		tr := rep.perLayer(w, r, before, after)
		rep.PerLayer = tr
		metrics = tr
		if err := r.tr.write(filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))); err != nil {
			return err
		}
	}
	rep.EndToEnd = e2e
	line, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*out, fmt.Sprintf("report-%s-seed%d-trace%d.json", w.name, *seed, *trace)), line, 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	res, err := json.Marshal(newResult(failed, attempted, metrics))
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// peakRSSMB is the process's peak resident set: VmHWM, the high-water mark
// of this program's own memory. getrusage's maxrss is only a fallback,
// since it carries over the peak of whatever process forked and exec'd it
// (a launcher's own resident set, when that is larger).
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil && kb > 0 {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Command perfbench is SCI's benchmark: it builds one of four seeded
// workloads against the public API of server, scinet, rangesvc and
// transport, measures it, checks every delivery and answer with an oracle,
// and prints one JSON result as the last line of standard output.
//
//	perfbench --workload fanout-mem --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run (see LAYERS.md for which
// end-to-end metric each layer metric should move). Run it through run.py,
// which builds it from the surrounding checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"sci/internal/leak"
)

// Run shape. Set-up is repeated and its median reported, so that work
// moved into set-up shows without one slow start deciding the figure.
const (
	setupReps     = 3
	warmBatches   = 300 // per stream, fixed work in every set-up
	warmPaced     = 500 * time.Millisecond
	pacedShare    = 0.55 // of --seconds
	satShare      = 0.35
	resultVersion = 1
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errTB adapts leak.Check's reporting to a collected message.
type errTB struct{ msgs []string }

func (t *errTB) Helper() {}
func (t *errTB) Errorf(format string, args ...any) {
	t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "fanout-mem, fanout-tcp, device-churn or fleet-churn")
	seed := flag.Int64("seed", 1, "workload seed: inputs, ids and schedules derive from it")
	seconds := flag.Int("seconds", 20, "measured seconds (paced plus saturating phases)")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spans := flag.String("spans", "", "traced run: write the recorded spans here as JSON lines")
	flag.Parse()
	build, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	rep, err := run(*workload, build, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	detail, _ := json.Marshal(rep.detail)
	fmt.Println(string(detail))
	last, _ := json.Marshal(rep.result)
	fmt.Println(string(last))
	if !rep.result.Correct {
		os.Exit(1)
	}
}

type report struct {
	result result
	detail map[string]any
}

func buildBlock(workload string, seed int64, transport string) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"timestamp":  time.Now().UTC().Format(time.RFC3339),
		"commit":     commit,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"workload":   workload,
		"seed":       seed,
		"transport":  map[string]string{"memory": "in-process", "tcp": "loopback TCP, binary codec"}[transport],
		"version":    resultVersion,
	}
}

func run(workload string, build builder, seed int64, secs time.Duration, traced bool, spansPath string) (*report, error) {
	tb := &errTB{}
	verifyLeaks := leak.Check(tb)
	tr := newTracer()

	var r *rig
	var setups []float64
	var opIdx int
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if r, err = build(seed, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if opIdx, err = r.warmUp(warmBatches); err != nil {
			r.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			r.close()
		}
	}

	probe, err := startSpeedProbe()
	if err != nil {
		r.close()
		return nil, err
	}
	pacedDur := time.Duration(float64(secs) * pacedShare)
	var base, pr *pacedResult
	var c0, c1 counters
	if traced {
		base = r.paced(pacedDur/2, &opIdx)
		tr.reset()
		c0 = r.snap()
		tr.on.Store(true)
		pr = r.paced(pacedDur/2, &opIdx)
		tr.on.Store(false)
		c1 = r.snap()
	} else {
		pr = r.paced(pacedDur, &opIdx)
	}
	wins, satErr := r.saturate(time.Duration(float64(secs) * satShare))
	ref, refSamples := probe.end()
	// Each figure is scaled by the machine's speed while it was measured:
	// the paced figures by the reference task's median time in their phase,
	// and each saturating window by the task's time in that window, since
	// the closed loop's rate follows the speed from second to second. The
	// closed loop keeps both processors busy, so a window's rate is also
	// divided by the share of processor time the hypervisor did not steal
	// (the task, timed by its thread's CPU clock, cannot see steal).
	scaleIn := func(from, to time.Time) float64 {
		if t := probe.medianIn(from, to); t > 0 {
			return float64(refNominal) / float64(t)
		}
		return float64(refNominal) / float64(ref)
	}
	eps, refEps := make([]float64, len(wins)), make([]float64, len(wins))
	for i, w := range wins {
		eps[i] = w.eps
		refEps[i] = w.eps / scaleIn(w.from, w.to) / (1 - min(w.steal, 0.9))
	}
	scale := scaleIn(pr.from, pr.to)

	var o oracle
	r.check(&o)
	transport := r.transport
	r.close()
	verifyLeaks()
	if len(tb.msgs) > 0 {
		o.leak = strings.Join(tb.msgs, "; ")
	}

	var errs []string
	errs = append(errs, pr.errs...)
	if !pr.drained {
		errs = append(errs, "paced deliveries did not drain")
	}
	if satErr != nil {
		errs = append(errs, satErr.Error())
	}
	if o.leak != "" {
		errs = append(errs, "goroutine leak: "+o.leak)
	}
	errs = append(errs, o.notes...)

	res := result{Metrics: make(map[string]metric)}
	res.Attempted = pr.owed + uint64(pr.queries+pr.attaches)
	res.Failed = o.failed() + uint64(pr.queryFail+pr.attachFail)
	if base != nil {
		res.Attempted += base.owed + uint64(base.queries+base.attaches)
		res.Failed += uint64(base.queryFail + base.attachFail)
	}
	if traced && spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			errs = append(errs, "writing spans: "+err.Error())
		}
	}
	res.Correct = res.Failed == 0 && len(errs) == 0

	e2e := endToEnd(pr, setups, refEps, scale)
	detail := map[string]any{
		"build":  buildBlock(workload, seed, transport),
		"phases": phaseBlock(pr, eps, setups, wins),
		"speed": map[string]any{
			"ref_task_ms":    float64(ref) / float64(time.Millisecond),
			"run_scale":      float64(refNominal) / float64(ref),
			"ref_nominal_ms": float64(refNominal) / float64(time.Millisecond),
			"ref_samples":    refSamples,
			"scale":          scale,
			"raw_metrics":    rawMetrics(e2e, scale, eps),
		},
		"oracle": map[string]any{
			"lost": o.lost, "duplicates": o.dups, "bad_payload": o.bad,
			"late_after_unsubscribe": o.late, "probe_bad_payload": o.probeBad,
			"unsubscribe_grace_ms": unsubscribeGrace.Milliseconds(),
			"tcp_codecs":           o.conns, "errors": errs,
		},
	}
	if traced {
		for k, v := range perLayer(r, tr, base, pr, c0, c1) {
			res.Metrics[k] = metric{Value: v, Unit: layerUnit(k)}
		}
		detail["untraced_half"] = endToEnd(base, setups, refEps, scaleIn(base.from, base.to))
		detail["traced_half"] = e2e
		detail["spans_file"] = spansPath
	} else {
		for k, m := range e2e {
			res.Metrics[k] = m
		}
	}
	return &report{result: res, detail: detail}, nil
}

// endToEnd computes the user-visible metrics of one paced phase, plus the
// saturating throughput and set-up time. The ref_* metrics are CPU-bound
// figures scaled to the reference task's nominal speed (scale is
// refNominal over the reference time measured during pr; refEps are the
// saturating windows, each already scaled by its own): the shared
// machine's speed drifts by tens of percent from minute to minute, and the
// scaled figures cancel that drift while a change to the program still
// moves them. rawMetrics gives the unscaled figures for the detail line.
func endToEnd(pr *pacedResult, setups, refEps []float64, scale float64) map[string]metric {
	per := func(x float64) float64 {
		if pr.got == 0 {
			return 0
		}
		return x / float64(pr.got)
	}
	ratio := 0.0
	if pr.owed > 0 {
		ratio = float64(pr.got) / float64(pr.owed)
	}
	queryOK := 0.0
	if pr.queries > 0 {
		queryOK = float64(pr.queries-pr.queryFail) / float64(pr.queries)
	}
	// The wall-clock figures come from the calm windows only.
	calm := pr.calm()
	queries, attaches := pr.opsIn(calm)
	return map[string]metric{
		"setup_s":                  {median(setups), "s"},
		"ref_delivered_eps":        {median(refEps), "1/s"},
		"ref_cpu_us_per_delivery":  {scale * windowsMedian(pr.windows, func(w window) float64 { return w.cpuPerDelivery }), "us"},
		"latency_p50_ms":           {windowsMedian(calm, func(w window) float64 { return w.p50 }), "ms"},
		"delivered_ratio":          {ratio, "ratio"},
		"alloc_bytes_per_delivery": {per(float64(pr.alloc)), "B"},
		"ref_query_p50_ms":         {scale * queries.quantileMs(0.5), "ms"},
		"query_ok_ratio":           {queryOK, "ratio"},
		"attach_mean_ms":           {attaches.meanMs(), "ms"},
	}
}

// rawMetrics are the ref_* metrics as measured, before scaling.
func rawMetrics(e2e map[string]metric, scale float64, eps []float64) map[string]float64 {
	return map[string]float64{
		"delivered_eps":       median(eps),
		"cpu_us_per_delivery": e2e["ref_cpu_us_per_delivery"].Value / scale,
		"query_p50_ms":        e2e["ref_query_p50_ms"].Value / scale,
	}
}

// phaseBlock reports sample counts and the percentiles actually used.
func phaseBlock(pr *pacedResult, eps, setups []float64, wins []satWindow) map[string]any {
	attachTail := tailQuantile(pr.attachLat.len(), 0.99)
	return map[string]any{
		"paced_seconds":                   pr.secs,
		"published":                       pr.published,
		"deliveries_owed":                 pr.owed,
		"deliveries":                      pr.got,
		"latency_samples":                 pr.lat.n,
		"latency_windows":                 len(pr.windows),
		"calm_windows":                    len(pr.calm()),
		"latency_p90_ms":                  windowsMedian(pr.calm(), func(w window) float64 { return w.p90 }),
		"latency_p99_ms":                  windowsMedian(pr.calm(), func(w window) float64 { return w.tail }),
		"query_p90_ms":                    pr.queryLat.quantileMs(0.9),
		"query_p99_ms":                    pr.queryLat.quantileMs(tailQuantile(pr.queryLat.len(), 0.99)),
		"attach_p50_ms":                   pr.attachLat.quantileMs(0.5),
		"window_cpu_us":                   windowValues(pr.windows, func(w window) float64 { return w.cpuPerDelivery }),
		"window_p99_ms":                   windowValues(pr.windows, func(w window) float64 { return w.tail }),
		"latency_window_min_samples":      minSamples(pr.windows),
		"latency_tail_pct":                100 * tailQuantile(minSamples(pr.windows), 0.99),
		"whole_phase_latency_p50_ms":      pr.lat.quantile(0.5),
		"whole_phase_latency_tail_ms":     pr.lat.quantile(tailQuantile(pr.lat.n, 0.99)),
		"whole_phase_cpu_us_per_delivery": float64(pr.cpu) / float64(time.Microsecond) / float64(max(pr.got, 1)),
		"generator_late_ms":               float64(pr.lateMax) / float64(time.Millisecond),
		"queries":                         pr.queries,
		"query_failures":                  pr.queryFail,
		"query_tail_pct":                  100 * tailQuantile(pr.queryLat.len(), 0.99),
		"attaches":                        pr.attaches,
		"attach_failures":                 pr.attachFail,
		"attach_tail_pct":                 100 * attachTail,
		"attach_tail_ms":                  pr.attachLat.quantileMs(attachTail),
		"saturating_eps":                  eps,
		"saturating_steal_pct":            satSteal(wins),
		"window_steal_pct":                windowValues(pr.windows, func(w window) float64 { return 100 * w.steal }),
		"setup_s":                         setups,
		"heap_peak_mb":                    pr.heapPeakMB,
	}
}

// satSteal is each saturating window's stolen share, in percent.
func satSteal(ws []satWindow) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = math.Round(w.steal*1e5) / 1000
	}
	return out
}

func minSamples(ws []window) int {
	n := -1
	for _, w := range ws {
		if n < 0 || w.samples < n {
			n = w.samples
		}
	}
	return n
}

func windowValues(ws []window, f func(window) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = math.Round(f(w)*1000) / 1000
	}
	return out
}

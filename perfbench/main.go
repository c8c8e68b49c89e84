// Command perfbench is the CellDTA benchmark. It times the simulator,
// the paper-reproduction sweep and the dtad service end to end, and in
// a separate traced run attributes host time to each layer from spans
// it records around its own calls into that layer's public functions.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload blocking --seed 1 --seconds 25 --trace 0
//
// Workloads (the reasons are recorded in BENCHMARK.json):
//
//	blocking     original-DTA simulations (blocking READs) at paper size
//	prefetch     the same program points after prefetch.Transform
//	paper-sweep  the 25 paper experiments through the sweep runner
//	dtad         an in-process dtad service driven by closed-loop clients
//
// The input of every workload derives from --seed. A run measures for
// --seconds, checks every output, and prints a human-readable report
// followed by one JSON line {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones. With --trace 1 the run
// alternates untraced and traced units of work (passes, sweeps, client
// epochs), reports the per-layer metrics, every layer's self time and
// the tracing overhead measured pair by pair, and writes the spans to
// <out>/spans-<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// phaseResult is what one measured window of a workload produced.
type phaseResult struct {
	e2e       []metric // every end-to-end metric but setup_s and max_rss_mb
	layers    []metric // per-layer metrics the workload measured
	report    []string // workload-specific report lines
	attempted int64
	failed    int64
	// digest hashes the simulated statistics of a fixed part of the
	// window's work; it repeats exactly for a given seed.
	digest string
	// unitCost is, in a traced run, each unit's host time per unit of
	// work, in the order the units ran (see overheadPct).
	unitCost []float64
}

// env is what a workload's measured window runs with.
type env struct {
	seed    uint64
	window  time.Duration
	workers int     // threads or clients the workload may use
	tr      *tracer // nil in untraced runs
}

type workload struct {
	setup func(seed uint64) error // one set-up
	// setupBatch is how many set-ups one setup_s sample times, so
	// that a sample lasts about a tenth of a second.
	setupBatch int
	run        func(e env) (*phaseResult, error)
}

var workloadTable = map[string]workload{
	"blocking":    {setup: simSetup(false), setupBatch: 10, run: simRun(false)},
	"prefetch":    {setup: simSetup(true), setupBatch: 10, run: simRun(true)},
	"paper-sweep": {setup: sweepSetup, setupBatch: 20, run: sweepRun},
	"dtad":        {setup: dtadSetup, setupBatch: 50, run: dtadRun},
}

// setupSamples is how many batches of set-ups a run times; setup_s is
// the median time of one set-up over the batches.
const setupSamples = 15

// spec is the part of BENCHMARK.json that names the metrics a run
// must report: the end-to-end ones with --trace 0, the per-layer ones
// with --trace 1.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: blocking, prefetch, paper-sweep or dtad")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 25, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for span files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, out string) error {
	wl, ok := workloadTable[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)
	fmt.Printf("host: %s\n", hostFingerprint())

	// One untimed set-up first, so the timed ones reuse heap pages the
	// process has already faulted in instead of timing first touches.
	if err := wl.setup(seed); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		t0 := time.Now()
		for j := 0; j < wl.setupBatch; j++ {
			if err := wl.setup(seed); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/float64(wl.setupBatch))
	}
	setup := metric{"setup_s", "s", median(setups), setupSamples * wl.setupBatch}

	e := env{seed: seed, window: time.Duration(seconds) * time.Second, workers: runtime.NumCPU()}
	if trace == 0 {
		res, err := wl.run(e)
		if err != nil {
			return err
		}
		e2e := append([]metric{setup}, res.e2e...)
		e2e, err = complete(append(e2e, metric{"max_rss_mb", "MB", maxRSSMB(), 1}), sp.EndToEnd, false)
		if err != nil {
			return err
		}
		printReport(res)
		fmt.Println("end-to-end metrics:")
		printMetrics(e2e)
		return emit(res, e2e)
	}

	// Traced run: one window whose units alternate untraced and traced.
	e.tr = newTracer()
	res, err := wl.run(e)
	if err != nil {
		return err
	}
	printReport(res)
	layers := append(res.layers, overhead(res.unitCost)...)
	for l, d := range e.tr.selfTimes() {
		layers = append(layers, metric{l + ".self_ms", "ms", float64(d) / 1e6, 1})
	}
	layers = append(layers, metric{"trace.spans", "count", float64(e.tr.count()), 1})
	path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.json", name, seed))
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := e.tr.write(path); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", e.tr.count(), path)

	if layers, err = complete(layers, sp.PerLayer, true); err != nil {
		return err
	}
	fmt.Println("per-layer metrics (n=0: the workload does not exercise the layer):")
	printMetrics(layers)
	return emit(res, layers)
}

// overhead reports the tracing overhead: how much more host time per
// unit of work the traced units took than the untraced units they are
// paired with. It is unresolved with fewer than two pairs, or when the
// pairs spread wider than the overhead itself.
func overhead(unitCost []float64) []metric {
	med, iqr, pairs := overheadPct(unitCost)
	verdict := ""
	if pairs < 2 || math.Abs(med) < iqr {
		verdict = " (unresolved: fewer than two pairs, or they spread wider than the overhead)"
	}
	fmt.Printf("tracing overhead: %+.2f%% host time per unit of work, median of %d traced/untraced pairs, IQR %.2f pt%s\n",
		med, pairs, iqr, verdict)
	return []metric{
		{"trace.overhead_pct", "%", med, pairs},
		{"trace.overhead_iqr_pct", "%", iqr, pairs},
	}
}

func printReport(res *phaseResult) {
	for _, l := range res.report {
		fmt.Println(l)
	}
	fmt.Printf("error_rate: %.6g (%d failed of %d attempted)\n",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	fmt.Printf("digest: %s\n", res.digest)
}

func printMetrics(list []metric) {
	for _, m := range list {
		fmt.Printf("  %-28s %-16.6g %-8s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
}

// complete returns ms ordered as want, checking each unit against
// BENCHMARK.json. A per-layer metric the workload did not measure (its
// layer is not exercised) reads 0 with no samples; a missing
// end-to-end metric is an error, and so is a metric BENCHMARK.json
// does not list.
func complete(ms []metric, want []specMetric, zeroMissing bool) ([]metric, error) {
	byName := make(map[string]metric, len(ms))
	for _, m := range ms {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(want))
	for _, w := range want {
		m, ok := byName[w.Name]
		switch {
		case !ok && !zeroMissing:
			return nil, fmt.Errorf("metric %s was not measured", w.Name)
		case !ok:
			m = metric{w.Name, w.Unit, 0, 0}
		case m.Unit != w.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %s is %v", w.Name, m.Value)
		}
		delete(byName, w.Name)
		out = append(out, m)
	}
	if len(byName) > 0 {
		return nil, fmt.Errorf("%d measured metrics are not in BENCHMARK.json, e.g. %v", len(byName), byName)
	}
	return out, nil
}

// emit prints the result line.
func emit(res *phaseResult, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if res.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	metrics := make(map[string]value, len(ms))
	for _, m := range ms {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/cell"
	"repro/internal/harness"
)

// runSweep runs exps through the sweep runner `experiments -parallel n`
// uses, with fresh runner state. It is the benchmark's only call into a
// sweep runner, so merging the runners re-points this one function.
//
// The benchmark runs it with one worker: on its two-CPU reference host
// two workers spread sweep_s 0.20 (IQR over median, five seeds)
// against 0.13 with one, because each worker then shares the host with
// the other's simulations.
func runSweep(opt harness.Options, exps []*harness.Experiment, workers int) []harness.RunResult {
	return harness.Parallel(opt, exps, workers)
}

// paperExperiments are the 25 paper experiments: the registry without
// the synth/* fuzz fixtures.
func paperExperiments() ([]*harness.Experiment, error) {
	var exps []*harness.Experiment
	for _, e := range harness.All() {
		if !strings.HasPrefix(e.ID, "synth/") {
			exps = append(exps, e)
		}
	}
	if len(exps) != 25 {
		return nil, fmt.Errorf("expected 25 paper experiments, the registry has %d", len(exps))
	}
	return exps, nil
}

// sweepSetup builds the sweep's three benchmarks at quick size, with
// and without prefetching, and an 8-SPE machine for each: the fixed
// cost every fresh sweep context pays before its first simulation.
func sweepSetup(seed uint64) error {
	if _, err := paperExperiments(); err != nil {
		return err
	}
	for _, p := range []point{{"bitcnt", 400, 8, 150}, {"mmul", 16, 8, 150}, {"zoom", 16, 8, 150}} {
		for _, pf := range []bool{false, true} {
			prog, err := build(nil, nil, 0, p, seed, pf)
			if err != nil {
				return err
			}
			if _, err := cell.New(p.config(), prog); err != nil {
				return err
			}
		}
	}
	return nil
}

// tracedExperiments wraps every experiment's Run in a span.
func tracedExperiments(tr *tracer, exps []*harness.Experiment) []*harness.Experiment {
	out := make([]*harness.Experiment, len(exps))
	for i, e := range exps {
		w := *e
		run := e.Run
		w.Run = func(ctx *harness.Context) (*harness.Outcome, error) {
			sp := tr.start("harness.experiment", nil, tr.newReq())
			defer sp.end()
			return run(ctx)
		}
		out[i] = &w
	}
	return out
}

// outcomeDigest hashes everything an experiment reports except timing.
func outcomeDigest(r harness.RunResult) (string, error) {
	if r.Outcome == nil {
		return "", fmt.Errorf("no outcome")
	}
	data, err := json.Marshal(r.Outcome)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(data)), nil
}

// sweepRun repeats the paper sweep at 8 SPEs and latency 150 until the
// window closes. Every sweep starts from fresh runner state with the
// same seed, so each must reproduce the first one's outcomes exactly,
// traced or not. In a traced run, sweeps alternate untraced and traced
// (see tracedUnit).
//
// The sweep runs at the harness's quick problem sizes. At paper size a
// sweep took 7-10 s on the two-CPU reference host, so a 25 s window
// held two or three, and ten runs spread 0.26-0.30 (IQR over median)
// in sweep_s and op_ms_*; a quick sweep takes under a second.
func sweepRun(e env) (*phaseResult, error) {
	exps, err := paperExperiments()
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		exps = tracedExperiments(e.tr, exps)
	}
	opt := harness.Options{SPEs: 8, Latency: 150, Seed: e.seed, Quick: true}
	res := &phaseResult{}
	var (
		walls, cps, expMax, cpus, represented []float64
		opMS                                  = make(map[string][]float64)
		first                                 []string
		sims                                  int
		deltas                                []counters
	)
	start := time.Now()
	for len(walls) < 2 || another(start, e.window, walls) {
		before, err := readCounters(nil, "")
		if err != nil {
			return nil, err
		}
		e.tr.setOn(tracedUnit(len(walls)))
		cpu0 := cpuTime()
		t0 := time.Now()
		results := runSweep(opt, exps, 1)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		e.tr.setOn(true)
		after, err := readCounters(nil, "")
		if err != nil {
			return nil, err
		}
		deltas = append(deltas, after.since(before))

		var cycles int64
		var slowest float64
		digests := make([]string, len(results))
		for i, r := range results {
			res.attempted++
			d, derr := outcomeDigest(r)
			if r.Err != nil || derr != nil {
				res.failed++
				res.report = append(res.report, fmt.Sprintf("FAILED %s: %v %v", r.Experiment.ID, r.Err, derr))
				continue
			}
			digests[i] = d
			if first != nil && d != first[i] {
				res.failed++
				res.report = append(res.report, fmt.Sprintf("NONDETERMINISTIC %s: sweep %d differs from sweep 0", r.Experiment.ID, len(walls)))
			}
			cycles += r.SimCycles
			t := float64(r.Elapsed) / float64(time.Millisecond)
			opMS[r.Experiment.ID] = append(opMS[r.Experiment.ID], t)
			slowest = max(slowest, t)
			sims++
		}
		if first == nil {
			first = digests
		}
		walls = append(walls, wall.Seconds())
		cps = append(cps, float64(cycles)/wall.Seconds())
		expMax = append(expMax, slowest)
		res.unitCost = append(res.unitCost, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		represented = append(represented, float64(cycles))
	}
	elapsed := time.Since(start)

	h := sha256.New()
	for i, d := range first {
		fmt.Fprintf(h, "%s %s\n", exps[i].ID, d)
	}
	res.digest = fmt.Sprintf("%x (sweep 0: %d experiments)", h.Sum(nil)[:12], len(first))
	op, ops := kindQuantiles(opMS, 0.5, 0.9)
	res.e2e = []metric{
		{"sim_cycles_per_s", "cycles/s", median(cps), len(cps)},
		{"sweep_s", "s", median(walls), len(walls)},
		{"requests_per_s", "1/s", float64(sims) / elapsed.Seconds(), sims},
		{"op_ms_p50", "ms", op[0], ops},
		{"op_ms_p90", "ms", op[1], ops},
	}
	res.report = append(res.report, fmt.Sprintf(
		"%d sweeps of %d experiments on one worker in %.2fs; median CPU %.2fs per sweep",
		len(walls), len(exps), elapsed.Seconds(), median(cpus)))
	if e.tr != nil {
		n := len(walls)
		res.layers = append(deltas[len(deltas)-1].counterMetrics(),
			metric{"harness.experiment_ms_max", "ms", median(expMax), n},
			metric{"harness.cpu_s", "s", median(cpus), n},
			metric{"harness.represented_cycles", "count", median(represented), n},
		)
	}
	return res, nil
}

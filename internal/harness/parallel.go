package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// RunResult is one experiment's outcome from a sweep run.
type RunResult struct {
	Experiment *Experiment
	Outcome    *Outcome
	Err        error
	Elapsed    time.Duration
	// SimCycles is the simulated cycles this experiment represents:
	// every simulation the experiment requested counts its cycle total,
	// whether it ran or was served from the run cache, so the number is
	// a property of the workload, not of the runner. Benchmarks divide
	// it by wall time for a sim-cycles/sec throughput measure.
	SimCycles int64
}

// Parallel is the sweep runner: it executes experiments on a bounded
// worker pool and returns results in input order.
//
// Each worker runs its experiments one after another through a single
// Context, so it owns one run cache, one program cache, one machine
// pool and one checkpoint cache: the paper's experiments re-request
// many of the same simulations, and a worker computes each of them
// once. Nothing is shared across workers, so every simulation stays
// single-threaded and deterministic. Results are byte-identical to
// running each experiment alone on a fresh context, and
// RunResult.SimCycles bills cache hits at face value, so neither
// depends on the worker count.
//
// workers <= 0 selects runtime.NumCPU(). A panic inside an experiment is
// contained to that experiment and reported as its Err.
func Parallel(opt Options, exps []*Experiment, workers int) []RunResult {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	results := make([]RunResult, len(exps))
	if len(exps) == 0 {
		return results
	}

	// Feed experiment indices to the pool; each result lands in its
	// input slot, so the output order never depends on scheduling.
	idxCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ctx := NewContext(opt)
			for i := range idxCh {
				results[i] = RunOn(ctx, exps[i])
			}
		}()
	}
	for i := range exps {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return results
}

// RunOn executes one experiment on the given context, converting panics
// into errors so one bad experiment cannot take down a sweep. It is the
// shared containment primitive: Parallel's workers, cmd/experiments'
// serial mode and the dtad service's workers all run experiments
// through it. RunOn(NewContext(opt), e) is the isolated reference run
// the determinism tests compare every other path against.
func RunOn(ctx *Context, exp *Experiment) (res RunResult) {
	start := time.Now()
	base := *ctx.simCycles
	res.Experiment = exp
	defer func() {
		res.Elapsed = time.Since(start)
		res.SimCycles = *ctx.simCycles - base
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("experiment %s panicked: %v", exp.ID, r)
		}
	}()
	res.Outcome, res.Err = exp.Run(ctx)
	return res
}

package harness

import (
	"runtime"
	"testing"

	"repro/internal/cell"
)

// benchmarkSweep runs the 8-experiment sweep through a runner,
// reporting how many cores the runner occupies and the simulated
// cycles the sweep represents per iteration — cmd/benchjson combines
// the three numbers into sim-cycles/sec/core.
func benchmarkSweep(b *testing.B, cores float64, run func(Options, []*Experiment) []RunResult) {
	exps := sweepExperiments(b)
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		for _, r := range run(quickOpts(), exps) {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Experiment.ID, r.Err)
			}
			cycles += r.SimCycles
		}
	}
	// After the loop: metrics reported before b.N iterations run are
	// discarded by the testing package.
	b.ReportMetric(cores, "cores")
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles")
}

// BenchmarkHarnessSerialSweep runs the sweep on one worker: one
// context, so one run cache serves all eight experiments.
func BenchmarkHarnessSerialSweep(b *testing.B) {
	benchmarkSweep(b, 1, func(opt Options, exps []*Experiment) []RunResult {
		return Parallel(opt, exps, 1)
	})
}

// BenchmarkHarnessParallelSweep exercises the sweep runner at
// runtime.NumCPU() workers; compare against BenchmarkHarnessSerialSweep
// for the wall-clock fan-out gain, less the simulations the workers'
// separate run caches now compute more than once.
func BenchmarkHarnessParallelSweep(b *testing.B) {
	benchmarkSweep(b, float64(runtime.NumCPU()), func(opt Options, exps []*Experiment) []RunResult {
		return Parallel(opt, exps, 0)
	})
}

// benchmarkPhaseSweep is the warm-up-heavy workload the checkpoint
// cache targets: per benchmark, one cold baseline plus six mid-run
// memory-latency variants that all share the first 3/4 of the baseline
// run as their warm-up prefix. With checkpointing the prefix is
// simulated once per benchmark and every sibling variant restores from
// the snapshot; cold=true disables the cache so the same sweep
// re-simulates every prefix — the before/after pair cmd/benchjson
// records.
//
// Both variants report identical "sim-cycles" (the cycles the sweep
// REPRESENTS, the same accounting as the other sweep benchmarks), so
// the checkpoint gain shows up purely in ns/op; "sim-cycles-saved"
// reports the execution actually skipped, and "checkpoint-hit-ratio"
// the cache's share of fork requests.
func benchmarkPhaseSweep(b *testing.B, cold bool) {
	b.ResetTimer()
	var cycles, hits, misses, saved int64
	for i := 0; i < b.N; i++ {
		h0 := CheckpointHits.Load()
		m0 := CheckpointMisses.Load()
		s0 := CheckpointCyclesSaved.Load()
		ctx := NewContext(quickOpts())
		ctx.NoCheckpoint = cold
		for _, bench := range benchmarks {
			base, err := ctx.run(bench, ctx.Opt.SPEs, true, defaultVariant())
			if err != nil {
				b.Fatalf("%s: %v", bench, err)
			}
			div := base.Cycles * 3 / 4
			for _, factor := range []int{2, 3, 4, 5, 6, 7} {
				knobs := cell.Knobs{MemLatency: ctx.Opt.Latency * factor}
				if _, err := ctx.runPhase(bench, ctx.Opt.SPEs, knobs, div); err != nil {
					b.Fatalf("%s x%d: %v", bench, factor, err)
				}
			}
		}
		cycles += *ctx.simCycles
		hits += CheckpointHits.Load() - h0
		misses += CheckpointMisses.Load() - m0
		saved += CheckpointCyclesSaved.Load() - s0
	}
	b.ReportMetric(1, "cores")
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles")
	ratio := 0.0
	if total := hits + misses; total > 0 {
		ratio = float64(hits) / float64(total)
	}
	b.ReportMetric(ratio, "checkpoint-hit-ratio")
	b.ReportMetric(float64(saved)/float64(b.N), "sim-cycles-saved")
}

// BenchmarkHarnessCheckpointSweep: the phase sweep with the checkpoint
// cache on — each benchmark's warm-up prefix is simulated once and the
// other five variants fork from the snapshot.
func BenchmarkHarnessCheckpointSweep(b *testing.B) {
	benchmarkPhaseSweep(b, false)
}

// BenchmarkHarnessColdPhaseSweep: the identical sweep with
// Context.NoCheckpoint set — every variant re-simulates its warm-up
// prefix. The ns/op gap to BenchmarkHarnessCheckpointSweep is the
// checkpoint machinery's end-to-end gain on a warm-up-heavy sweep.
func BenchmarkHarnessColdPhaseSweep(b *testing.B) {
	benchmarkPhaseSweep(b, true)
}

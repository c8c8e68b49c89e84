package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/synth"
)

// sweepIDs is the 8-experiment sweep used by the sweep-runner tests
// and benchmarks: the paper's figures plus the latency study.
var sweepIDs = []string{"fig5a", "fig5b", "table5", "fig6", "fig7", "fig8", "fig9", "lat1"}

func sweepExperiments(t testing.TB) []*Experiment {
	t.Helper()
	exps := make([]*Experiment, 0, len(sweepIDs))
	for _, id := range sweepIDs {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		exps = append(exps, e)
	}
	return exps
}

func quickOpts() Options {
	return Options{SPEs: 8, Latency: 150, Quick: true, Seed: 42}
}

// renderResults flattens a sweep's outcomes — rendered tables, notes and
// sorted metrics — into one byte string, so runs can be compared
// cycle-for-cycle and stat-for-stat.
func renderResults(t testing.TB, results []RunResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Experiment.ID, r.Err)
		}
		fmt.Fprintf(&buf, "== %s\n", r.Experiment.ID)
		r.Outcome.Print(&buf)
		for _, k := range sortedKeys(r.Outcome.Metrics) {
			fmt.Fprintf(&buf, "%s=%v\n", k, r.Outcome.Metrics[k])
		}
	}
	return buf.Bytes()
}

// corpusExperiments returns the 32 pinned synth-corpus experiments —
// each one runs the full differential (original AND prefetched
// simulation), so sweeping them covers both program variants.
func corpusExperiments(t testing.TB) []*Experiment {
	t.Helper()
	seeds := synth.CorpusSeeds()
	exps := make([]*Experiment, 0, len(seeds))
	for _, seed := range seeds {
		e, ok := ByID(synth.ExperimentID(seed))
		if !ok {
			t.Fatalf("synth corpus experiment for seed %d missing", seed)
		}
		exps = append(exps, e)
	}
	return exps
}

// paperExperiments returns the registry without the synth corpus.
func paperExperiments() []*Experiment {
	var exps []*Experiment
	for _, e := range All() {
		if !strings.HasPrefix(e.ID, "synth/") {
			exps = append(exps, e)
		}
	}
	return exps
}

// isolated is the reference every runner is compared against: each
// experiment alone on a fresh context, so nothing is shared.
func isolated(opt Options, exps []*Experiment) []RunResult {
	results := make([]RunResult, len(exps))
	for i, e := range exps {
		results[i] = RunOn(NewContext(opt), e)
	}
	return results
}

// checkMatchesIsolated runs exps through Parallel at one and two workers
// and requires tables, notes and metrics byte-identical to the isolated
// reference: the shared per-worker caches may change how much is
// simulated, never what is reported.
func checkMatchesIsolated(t *testing.T, exps []*Experiment) {
	t.Helper()
	want := renderResults(t, isolated(quickOpts(), exps))
	for _, workers := range []int{1, 2} {
		got := renderResults(t, Parallel(quickOpts(), exps, workers))
		if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d: sweep diverges from isolated runs:\n--- isolated ---\n%s\n--- parallel ---\n%s",
				workers, want, got)
		}
	}
}

// TestParallelMatchesSerial is the harness-level determinism regression
// over every paper experiment: the sweep runner at one and two workers
// must report exactly what each experiment reports when run alone.
func TestParallelMatchesSerial(t *testing.T) {
	checkMatchesIsolated(t, paperExperiments())
}

// TestParallelMatchesSerialCorpus is the same contract over the full
// 32-seed pinned corpus (original and prefetch-transformed simulation
// of every scenario).
func TestParallelMatchesSerialCorpus(t *testing.T) {
	checkMatchesIsolated(t, corpusExperiments(t))
}

// TestSimCyclesRunnerIndependent: the represented-cycles metric counts
// cache hits at face value, so each experiment reports the same
// SimCycles whatever the worker count and whatever its worker computed
// before it.
func TestSimCyclesRunnerIndependent(t *testing.T) {
	exps := sweepExperiments(t)
	want := isolated(quickOpts(), exps)
	for _, workers := range []int{1, 2} {
		got := Parallel(quickOpts(), exps, workers)
		for i := range exps {
			if want[i].Err != nil || got[i].Err != nil {
				t.Fatalf("%s: isolated err %v, workers=%d err %v", exps[i].ID, want[i].Err, workers, got[i].Err)
			}
			if want[i].SimCycles <= 0 {
				t.Fatalf("%s: isolated SimCycles = %d, want > 0", exps[i].ID, want[i].SimCycles)
			}
			if got[i].SimCycles != want[i].SimCycles {
				t.Fatalf("%s: SimCycles isolated=%d workers=%d: %d", exps[i].ID, want[i].SimCycles, workers, got[i].SimCycles)
			}
		}
	}
}

// TestParallelRepeatable runs the parallel sweep twice and asserts
// cycle-for-cycle identical results.
func TestParallelRepeatable(t *testing.T) {
	exps := sweepExperiments(t)
	a := renderResults(t, Parallel(quickOpts(), exps, 4))
	b := renderResults(t, Parallel(quickOpts(), exps, 4))
	if !bytes.Equal(a, b) {
		t.Fatal("repeated parallel sweeps diverge")
	}
}

// TestParallelPreservesOrder checks results land in input order, not
// completion order.
func TestParallelPreservesOrder(t *testing.T) {
	exps := sweepExperiments(t)
	results := Parallel(quickOpts(), exps, 3)
	if len(results) != len(exps) {
		t.Fatalf("got %d results for %d experiments", len(results), len(exps))
	}
	for i, r := range results {
		if r.Experiment != exps[i] {
			t.Fatalf("result %d is %s, want %s", i, r.Experiment.ID, exps[i].ID)
		}
	}
}

// TestParallelContainsPanic ensures a panicking experiment surfaces as
// its own error without killing the sweep — also on one worker, where
// the healthy experiment then runs on the context the panic unwound.
func TestParallelContainsPanic(t *testing.T) {
	bad := &Experiment{
		ID:    "boom",
		Title: "panics",
		Run:   func(*Context) (*Outcome, error) { panic("kaboom") },
	}
	good, ok := ByID("table2")
	if !ok {
		t.Fatal("table2 missing")
	}
	for _, workers := range []int{1, 2} {
		results := Parallel(quickOpts(), []*Experiment{bad, good}, workers)
		if results[0].Err == nil {
			t.Fatalf("workers=%d: panicking experiment reported no error", workers)
		}
		if results[1].Err != nil {
			t.Fatalf("workers=%d: healthy experiment failed: %v", workers, results[1].Err)
		}
		if results[1].Outcome == nil {
			t.Fatalf("workers=%d: healthy experiment lost its outcome", workers)
		}
	}
}

// TestParallelEmptyAndClamped covers the degenerate inputs.
func TestParallelEmptyAndClamped(t *testing.T) {
	if got := Parallel(quickOpts(), nil, 4); len(got) != 0 {
		t.Fatalf("empty sweep returned %d results", len(got))
	}
	// More workers than experiments, and workers <= 0, must both work.
	exps := sweepExperiments(t)[:2]
	for _, workers := range []int{0, -1, 64} {
		results := Parallel(quickOpts(), exps, workers)
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d: %v", workers, r.Err)
			}
		}
	}
}

// runBatch runs exps one after another through RunOn on one fresh
// Context: the batch a single sweep worker executes, sharing one run
// cache, program cache, machine pool and checkpoint cache.
func runBatch(opt Options, exps []*Experiment) []RunResult {
	ctx := NewContext(opt)
	results := make([]RunResult, len(exps))
	for i, e := range exps {
		results[i] = RunOn(ctx, e)
	}
	return results
}

// reversed returns a reversed copy of exps.
func reversed(exps []*Experiment) []*Experiment {
	out := make([]*Experiment, len(exps))
	for i, e := range exps {
		out[len(exps)-1-i] = e
	}
	return out
}

// TestBatchedMatchesSerialSweep: a worker's batch over the sweep must
// report exactly what each experiment reports alone, in either order,
// so what the shared caches already hold never leaks into a result.
func TestBatchedMatchesSerialSweep(t *testing.T) {
	exps := sweepExperiments(t)
	want := renderResults(t, isolated(quickOpts(), exps))
	if got := renderResults(t, runBatch(quickOpts(), exps)); !bytes.Equal(want, got) {
		t.Fatalf("batch diverges from isolated runs:\n--- isolated ---\n%s\n--- batch ---\n%s", want, got)
	}
	rev := reversed(exps)
	wantRev := renderResults(t, isolated(quickOpts(), rev))
	if got := renderResults(t, runBatch(quickOpts(), rev)); !bytes.Equal(wantRev, got) {
		t.Fatalf("reversed batch diverges from isolated runs:\n--- isolated ---\n%s\n--- batch ---\n%s", wantRev, got)
	}
}

// TestBatchedPreservesOrder: when every worker runs a batch of several
// experiments, results still land in input order.
func TestBatchedPreservesOrder(t *testing.T) {
	exps := sweepExperiments(t)
	for _, workers := range []int{1, 2} {
		results := Parallel(quickOpts(), exps, workers)
		if len(results) != len(exps) {
			t.Fatalf("workers=%d: got %d results for %d experiments", workers, len(results), len(exps))
		}
		for i, r := range results {
			if r.Experiment != exps[i] {
				t.Fatalf("workers=%d: result %d is %s, want %s", workers, i, r.Experiment.ID, exps[i].ID)
			}
		}
	}
}

// TestBatchedContainsPanic: a panic unwinding out of one experiment
// leaves the worker's context usable, and the experiments batched after
// it report exactly what they report alone.
func TestBatchedContainsPanic(t *testing.T) {
	bad := &Experiment{
		ID:    "boom",
		Title: "panics",
		Run:   func(*Context) (*Outcome, error) { panic("kaboom") },
	}
	good := sweepExperiments(t)[:3]
	results := runBatch(quickOpts(), append([]*Experiment{bad}, good...))
	if results[0].Err == nil {
		t.Fatal("panicking experiment reported no error")
	}
	want := renderResults(t, isolated(quickOpts(), good))
	if got := renderResults(t, results[1:]); !bytes.Equal(want, got) {
		t.Fatalf("experiments after the panic diverge from isolated runs:\n--- isolated ---\n%s\n--- batch ---\n%s", want, got)
	}
}

// TestBatchedEmptyAndClamped covers the degenerate batches: an empty
// one, and worker counts clamped so each worker's batch holds one
// experiment or all of them.
func TestBatchedEmptyAndClamped(t *testing.T) {
	if got := runBatch(quickOpts(), nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	exps := sweepExperiments(t)[:2]
	want := renderResults(t, isolated(quickOpts(), exps))
	for _, workers := range []int{1, 2, 64} {
		if got := renderResults(t, Parallel(quickOpts(), exps, workers)); !bytes.Equal(want, got) {
			t.Fatalf("workers=%d: sweep diverges from isolated runs", workers)
		}
	}
}

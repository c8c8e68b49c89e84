package harness

import (
	"errors"
	"strings"
	"testing"
)

// errorSweep is a three-experiment sweep exercising both failure modes
// next to a healthy run: an error return, a panic, and a real cheap
// experiment (table2, a config echo).
func errorSweep(t *testing.T) []*Experiment {
	t.Helper()
	good, ok := ByID("table2")
	if !ok {
		t.Fatal("table2 missing")
	}
	return []*Experiment{
		{
			ID:    "erroring",
			Title: "returns an error",
			Run: func(*Context) (*Outcome, error) {
				return nil, errors.New("deliberate error")
			},
		},
		{
			ID:    "panicking",
			Title: "panics mid-run",
			Run: func(*Context) (*Outcome, error) {
				panic("deliberate panic")
			},
		},
		good,
	}
}

// checkErrorSweep asserts the shared contract of RunOn and Parallel on
// failing experiments: errors land on their own slot, panics are
// converted to errors naming the experiment, healthy experiments keep
// their outcome, and every result records its experiment and a timing.
func checkErrorSweep(t *testing.T, runner string, results []RunResult) {
	t.Helper()
	if len(results) != 3 {
		t.Fatalf("%s: %d results for 3 experiments", runner, len(results))
	}
	errRes, panicRes, goodRes := results[0], results[1], results[2]

	if errRes.Err == nil || !strings.Contains(errRes.Err.Error(), "deliberate error") {
		t.Fatalf("%s: erroring experiment err = %v", runner, errRes.Err)
	}
	if errRes.Outcome != nil {
		t.Fatalf("%s: erroring experiment still produced an outcome", runner)
	}

	if panicRes.Err == nil {
		t.Fatalf("%s: panic was not converted to an error", runner)
	}
	msg := panicRes.Err.Error()
	if !strings.Contains(msg, "panicked") || !strings.Contains(msg, "deliberate panic") || !strings.Contains(msg, "panicking") {
		t.Fatalf("%s: panic error %q should name the experiment and the panic value", runner, msg)
	}

	if goodRes.Err != nil {
		t.Fatalf("%s: healthy experiment failed: %v", runner, goodRes.Err)
	}
	if goodRes.Outcome == nil || len(goodRes.Outcome.Tables) == 0 {
		t.Fatalf("%s: healthy experiment lost its outcome", runner)
	}

	for i, r := range results {
		if r.Experiment == nil {
			t.Fatalf("%s: result %d lost its experiment", runner, i)
		}
		if r.Elapsed < 0 {
			t.Fatalf("%s: result %d has negative elapsed %v", runner, i, r.Elapsed)
		}
	}
}

func TestRunOnErrorPaths(t *testing.T) {
	checkErrorSweep(t, "RunOn", isolated(quickOpts(), errorSweep(t)))
}

func TestParallelErrorPaths(t *testing.T) {
	checkErrorSweep(t, "Parallel/1", Parallel(quickOpts(), errorSweep(t), 1))
	checkErrorSweep(t, "Parallel/2", Parallel(quickOpts(), errorSweep(t), 2))
}

// TestNegativeLatencyRejected: an Options latency below zero reaches
// the machine configuration, which rejects it with an error instead of
// simulating a nonsensical machine.
func TestNegativeLatencyRejected(t *testing.T) {
	e, ok := ByID("mmul-pf")
	if !ok {
		t.Fatal("mmul-pf missing")
	}
	r := RunOn(NewContext(Options{Quick: true, Latency: -5}), e)
	if r.Err == nil || !strings.Contains(r.Err.Error(), "negative latency") {
		t.Fatalf("Latency -5: err = %v, want a negative-latency error", r.Err)
	}
}

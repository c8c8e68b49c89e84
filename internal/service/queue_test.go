package service

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// stubRegistry builds a Lookup over synthetic experiments, so queue
// tests can control timing and failure modes precisely.
func stubRegistry(exps ...*harness.Experiment) func(string) (*harness.Experiment, bool) {
	byID := make(map[string]*harness.Experiment, len(exps))
	for _, e := range exps {
		byID[e.ID] = e
	}
	return func(id string) (*harness.Experiment, bool) {
		e, ok := byID[id]
		return e, ok
	}
}

func okExperiment(id string) *harness.Experiment {
	return &harness.Experiment{
		ID:    id,
		Title: "stub " + id,
		Run: func(ctx *harness.Context) (*harness.Outcome, error) {
			return &harness.Outcome{Metrics: map[string]float64{"spes": float64(ctx.Opt.SPEs)}}, nil
		},
	}
}

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s (%s) never finished", j.ID, j.Experiment)
	}
}

// TestSubmitCacheHit is the acceptance core: the second identical
// submission is served from cache, byte-identical, without a second
// simulation.
func TestSubmitCacheHit(t *testing.T) {
	s := New(Config{Workers: 2, Lookup: stubRegistry(okExperiment("stub"))})
	defer s.Close()

	first, err := s.Submit("stub", harness.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, first)
	if first.State != JobDone || first.CacheHit {
		t.Fatalf("first run: state=%s cacheHit=%v", first.State, first.CacheHit)
	}

	second, err := s.Submit("stub", harness.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, second)
	if second.State != JobDone || !second.CacheHit {
		t.Fatalf("second run: state=%s cacheHit=%v, want done from cache", second.State, second.CacheHit)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cached result differs:\n%s\n%s", first.Result, second.Result)
	}
	if n := s.Simulations(); n != 1 {
		t.Fatalf("ran %d simulations, want exactly 1", n)
	}
	if st := s.Cache().Stats(); st.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit", st)
	}
}

// TestSubmitDifferentOptionsMiss: a changed option is a different key,
// so it simulates again.
func TestSubmitDifferentOptionsMiss(t *testing.T) {
	s := New(Config{Workers: 1, Lookup: stubRegistry(okExperiment("stub"))})
	defer s.Close()
	a, _ := s.Submit("stub", harness.Options{Quick: true, SPEs: 4})
	b, _ := s.Submit("stub", harness.Options{Quick: true, SPEs: 8})
	waitJob(t, a)
	waitJob(t, b)
	if a.Key == b.Key {
		t.Fatal("different options produced the same run key")
	}
	if n := s.Simulations(); n != 2 {
		t.Fatalf("ran %d simulations, want 2", n)
	}
}

func TestSubmitUnknownExperiment(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Submit("no-such-experiment", harness.Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestJobFailure: an experiment error lands on the job, is not cached,
// and a panicking experiment is contained the same way.
func TestJobFailure(t *testing.T) {
	reg := stubRegistry(
		&harness.Experiment{ID: "err", Run: func(*harness.Context) (*harness.Outcome, error) {
			return nil, errors.New("deliberate failure")
		}},
		&harness.Experiment{ID: "panic", Run: func(*harness.Context) (*harness.Outcome, error) {
			panic("deliberate panic")
		}},
	)
	s := New(Config{Workers: 2, Lookup: reg})
	defer s.Close()

	errJob, err := s.Submit("err", harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	panicJob, err := s.Submit("panic", harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, errJob)
	waitJob(t, panicJob)
	if errJob.State != JobFailed || !strings.Contains(errJob.Err, "deliberate failure") {
		t.Fatalf("error job: state=%s err=%q", errJob.State, errJob.Err)
	}
	if panicJob.State != JobFailed || !strings.Contains(panicJob.Err, "deliberate panic") {
		t.Fatalf("panic job: state=%s err=%q", panicJob.State, panicJob.Err)
	}
	if st := s.Cache().Stats(); st.Len != 0 {
		t.Fatalf("failed runs were cached: %+v", st)
	}
}

// TestCancelQueuedJob wedges the single worker on a gated experiment,
// cancels a job stuck behind it, and checks the worker skips it.
func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	ran := make(chan string, 8)
	gated := &harness.Experiment{ID: "gated", Run: func(*harness.Context) (*harness.Outcome, error) {
		ran <- "gated"
		<-gate
		return &harness.Outcome{}, nil
	}}
	victim := &harness.Experiment{ID: "victim", Run: func(*harness.Context) (*harness.Outcome, error) {
		ran <- "victim"
		return &harness.Outcome{}, nil
	}}
	s := New(Config{Workers: 1, Lookup: stubRegistry(gated, victim)})

	blocker, err := s.Submit("gated", harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	<-ran // the worker is now inside the gated experiment
	queued, err := s.Submit("victim", harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if queued.State != JobCanceled {
		t.Fatalf("canceled job state = %s", queued.State)
	}
	if err := s.Cancel(queued.ID); err == nil {
		t.Fatal("double cancel succeeded")
	}
	if err := s.Cancel(blocker.ID); err == nil {
		t.Fatal("canceled a running job")
	}
	close(gate)
	waitJob(t, blocker)
	s.Close() // drain: proves the worker did not wedge on the canceled job
	select {
	case id := <-ran:
		t.Fatalf("canceled job %s executed anyway", id)
	default:
	}
}

// TestSweepAndDrain submits a batch, closes the service, and checks
// every job reached a terminal state and submissions now fail.
func TestSweepAndDrain(t *testing.T) {
	s := New(Config{Workers: 2, Lookup: stubRegistry(okExperiment("a"), okExperiment("b"), okExperiment("c"))})
	sweep, err := s.SubmitSweep([]string{"a", "b", "c"}, harness.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Jobs) != 3 || sweep.ID == "" {
		t.Fatalf("sweep = %+v", sweep)
	}
	s.Close()
	for _, j := range sweep.Jobs {
		if !j.State.Terminal() {
			t.Fatalf("job %s not terminal after drain: %s", j.ID, j.State)
		}
		if j.State != JobDone {
			t.Fatalf("job %s = %s (%s)", j.ID, j.State, j.Err)
		}
	}
	if _, err := s.Submit("a", harness.Options{}); err == nil {
		t.Fatal("submit accepted after drain")
	}
	if got, ok := s.Sweep(sweep.ID); !ok || got != sweep {
		t.Fatal("sweep lookup failed")
	}
}

func TestSweepRejectsUnknownID(t *testing.T) {
	s := New(Config{Workers: 1, Lookup: stubRegistry(okExperiment("a"))})
	defer s.Close()
	if _, err := s.SubmitSweep([]string{"a", "nope"}, harness.Options{}); err == nil {
		t.Fatal("sweep with unknown id accepted")
	}
	if _, err := s.SubmitSweep(nil, harness.Options{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
	// Validation happens before any enqueue: nothing may have run.
	s.Close()
	if n := s.Simulations(); n != 0 {
		t.Fatalf("rejected sweeps still ran %d simulations", n)
	}
}

// TestQueueFull: with a wedged worker and depth 1, the second waiting
// submission is rejected as queue-full but still tracked terminal.
func TestQueueFull(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	gated := &harness.Experiment{ID: "gated", Run: func(*harness.Context) (*harness.Outcome, error) {
		close(entered)
		<-gate
		return &harness.Outcome{}, nil
	}}
	s := New(Config{Workers: 1, QueueDepth: 1, Lookup: stubRegistry(gated, okExperiment("a"), okExperiment("b"))})
	if _, err := s.Submit("gated", harness.Options{}); err != nil {
		t.Fatal(err)
	}
	<-entered
	if _, err := s.Submit("a", harness.Options{}); err != nil { // fills the queue
		t.Fatal(err)
	}
	job, err := s.Submit("b", harness.Options{})
	if err == nil {
		t.Fatal("overfull queue accepted a job")
	}
	if job == nil || job.State != JobFailed || !strings.Contains(job.Err, "queue full") {
		t.Fatalf("queue-full job = %+v", job)
	}
	close(gate)
	s.Close()
}

// TestServiceRealExperiment runs a real registry experiment end to end
// through the queue (table2 is a config echo — cheap).
func TestServiceRealExperiment(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	job, err := s.Submit("table2", harness.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	if job.State != JobDone {
		t.Fatalf("table2 job = %s (%s)", job.State, job.Err)
	}
	if !strings.Contains(string(job.Result), `"mem_latency":150`) {
		t.Fatalf("result document missing metrics: %s", job.Result)
	}
	if job.Key != RunKey("table2", harness.Options{Quick: true}) {
		t.Fatal("job key disagrees with RunKey")
	}
}

// TestJobRetention: terminal jobs are forgotten oldest-first beyond the
// bound, so a long-running daemon's job table cannot grow per request.
func TestJobRetention(t *testing.T) {
	s := New(Config{Workers: 1, JobRetention: 2, SweepRetention: 1, Lookup: stubRegistry(okExperiment("stub"))})
	defer s.Close()
	var jobs []*Job
	for i := 0; i < 4; i++ {
		// Vary the seed so every submission simulates (distinct keys).
		j, err := s.Submit("stub", harness.Options{Quick: true, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		jobs = append(jobs, j)
	}
	if _, ok := s.Job(jobs[0].ID); ok {
		t.Fatal("oldest terminal job survived past the retention bound")
	}
	if _, ok := s.Job(jobs[3].ID); !ok {
		t.Fatal("newest terminal job was pruned")
	}

	// Sweeps prune the same way.
	a, err := s.SubmitSweep([]string{"stub"}, harness.Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SubmitSweep([]string{"stub"}, harness.Options{Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Sweep(a.ID); ok {
		t.Fatal("oldest sweep survived past the retention bound")
	}
	if _, ok := s.Sweep(b.ID); !ok {
		t.Fatal("newest sweep was pruned")
	}
}

// TestSubmitCoalescesInflight: concurrent identical submissions attach
// to the one in-flight job instead of simulating twice — the
// no-second-simulation contract must hold even when the second submit
// arrives before the first finishes.
func TestSubmitCoalescesInflight(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	gated := &harness.Experiment{ID: "gated", Run: func(*harness.Context) (*harness.Outcome, error) {
		close(entered)
		<-gate
		return &harness.Outcome{Metrics: map[string]float64{"v": 1}}, nil
	}}
	s := New(Config{Workers: 2, Lookup: stubRegistry(gated)})

	first, err := s.Submit("gated", harness.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // simulation is in flight, result not yet cached
	second, err := s.Submit("gated", harness.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("concurrent identical submission got its own job (%s vs %s)", second.ID, first.ID)
	}
	close(gate)
	waitJob(t, first)
	s.Close()
	if n := s.Simulations(); n != 1 {
		t.Fatalf("ran %d simulations for one key, want 1", n)
	}
	// A fresh submission after completion is a plain cache hit.
	// (Service is closed; assert via the cache directly.)
	if _, hit := s.Cache().Get(first.Key); !hit {
		t.Fatal("result not cached after coalesced run")
	}
}

// TestWorkersMatchIsolated runs the same mixed sweep — paper figures
// plus synth corpus seeds, real experiments through the default
// registry — through a one-worker and a two-worker service, and asserts
// result documents byte-identical to encoding each experiment's
// isolated reference run: sharing a worker's context across jobs never
// changes a result.
func TestWorkersMatchIsolated(t *testing.T) {
	ids := []string{"table2", "fig5a", "synth/0001", "synth/0002", "fig5b", "synth/0003"}
	opt := harness.Options{Quick: true}.WithDefaults()
	want := make(map[string][]byte, len(ids))
	for _, id := range ids {
		exp, _ := harness.ByID(id)
		r := harness.RunOn(harness.NewContext(opt), exp)
		if r.Err != nil {
			t.Fatalf("%s: %v", id, r.Err)
		}
		data, err := EncodeResult(id, opt, r.Outcome)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = data
	}
	for _, workers := range []int{1, 2} {
		s := New(Config{Workers: workers})
		sweep, err := s.SubmitSweep(ids, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range sweep.Jobs {
			waitJob(t, j)
			if j.State != JobDone {
				t.Fatalf("workers=%d %s: state=%s err=%s", workers, j.Experiment, j.State, j.Err)
			}
			if !bytes.Equal(want[j.Experiment], j.Result) {
				t.Fatalf("workers=%d %s: result differs from the isolated run:\n%s\n%s",
					workers, j.Experiment, want[j.Experiment], j.Result)
			}
		}
		s.Close()
	}
}

// TestConcurrentIdenticalJobsOneSimulation: identical jobs or sweeps
// racing through a one-worker service cost ONE simulation — a duplicate
// either coalesces onto the in-flight job at submission or is served
// from the result cache — with byte-identical bodies either way.
func TestConcurrentIdenticalJobsOneSimulation(t *testing.T) {
	opt := harness.Options{Quick: true}
	check := func(label string, submit func(*Service) []*Job) {
		t.Helper()
		s := New(Config{Workers: 1})
		defer s.Close()
		jobs := submit(s)
		for _, j := range jobs {
			waitJob(t, j)
			if j.State != JobDone {
				t.Fatalf("%s: state=%s err=%s", label, j.State, j.Err)
			}
			if !bytes.Equal(jobs[0].Result, j.Result) {
				t.Fatalf("%s: duplicate result differs:\n%s\n%s", label, jobs[0].Result, j.Result)
			}
		}
		if n := s.Simulations(); n != 1 {
			t.Fatalf("%s: simulations = %d, want 1 (duplicate coalesced or cache-served)", label, n)
		}
	}
	check("jobs", func(s *Service) []*Job {
		var jobs []*Job
		for i := 0; i < 2; i++ {
			j, err := s.Submit("fig7", opt)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		return jobs
	})
	check("sweeps", func(s *Service) []*Job {
		var jobs []*Job
		for i := 0; i < 2; i++ {
			sw, err := s.SubmitSweep([]string{"fig7"}, opt)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, sw.Jobs...)
		}
		return jobs
	})
}

// TestNegativeLatencyJobFails: a job whose Options carry a negative
// latency ends failed with the configuration error, and nothing is
// cached under its key.
func TestNegativeLatencyJobFails(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	j, err := s.Submit("mmul-pf", harness.Options{Quick: true, Latency: -5})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.State != JobFailed || !strings.Contains(j.Err, "negative latency") {
		t.Fatalf("state=%s err=%q, want failed with a negative-latency error", j.State, j.Err)
	}
	if _, hit := s.Cache().peek(j.Key); hit {
		t.Fatal("failed job's result was cached")
	}
}

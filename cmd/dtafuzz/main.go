// Command dtafuzz drives the synth differential fuzzer: it generates
// scenario programs from seeds, runs each three ways (functional
// oracle, simulated original, simulated prefetch-transformed) and
// fails loudly on any divergence, deadlock or guard-band violation.
//
// Usage:
//
//	dtafuzz [-seeds n] [-start s] [-seed s] [-duration d] [-parallel n]
//	        [-quick] [-shrink] [-out path] [-latency n] [-v]
//	        [-trace path] [-profile path]
//
// Modes:
//
//	-seeds n      check seeds start..start+n-1 (default 64)
//	-seed s       check exactly one seed
//	-duration d   keep checking increasing seeds until the budget ends
//	-shrink       on failure, minimise the lowest failing seed and write
//	              an asm-format reproducer to -out
//	-quick        lower the simulated memory latency for faster sweeps
//
// Seeds fan out over a worker pool (-parallel, default one per CPU);
// every check is independent and deterministic, so parallel and serial
// sweeps find exactly the same failures. Each worker recycles machines
// through its own pool across the seeds it checks. Exit status: 0 all
// seeds passed, 1 divergence found (reproducer written when -shrink), 2
// bad usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"path/filepath"
	"strings"

	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/profiling"
	"repro/internal/synth"
)

type outcome struct {
	seed uint64
	rep  *synth.Report
	err  error
}

func main() {
	var (
		seeds     = flag.Int("seeds", 64, "number of seeds to check (ignored with -seed/-duration)")
		start     = flag.Uint64("start", 1, "first seed")
		oneSeed   = flag.Uint64("seed", 0, "check a single seed and exit")
		duration  = flag.Duration("duration", 0, "time budget: check increasing seeds until it expires")
		parallel  = flag.Int("parallel", 0, "worker pool size (0 = one per CPU)")
		quick     = flag.Bool("quick", false, "quick mode: 60-cycle memory latency")
		shrink    = flag.Bool("shrink", false, "shrink the lowest failing seed to a minimal reproducer")
		out       = flag.String("out", "synth-repro.txt", "reproducer path (with -shrink)")
		latency   = flag.Int("latency", 0, "main-memory latency in cycles (0 = paper 150)")
		verbose   = flag.Bool("v", false, "log every seed, not just failures")
		diffB     = flag.Bool("diffburst", false, "also run every simulation single-step and fail on any burst fast-path divergence")
		diffCkpt  = flag.Bool("checkpoint", false, "also re-run every simulation through a snapshot/restore seam at its halfway boundary and fail on any divergence")
		tracePath = flag.String("trace", "", "write a Chrome trace-event timeline (with -seed: that scenario; with -shrink: the minimised reproducer)")
		profPath  = flag.String("profile", "", "write guest cycle profiles (pprof format; <path>-orig/<path>-pf before the extension) of a scenario, scoped like -trace")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	if *seeds <= 0 {
		fmt.Fprintf(os.Stderr, "-seeds must be positive (got %d)\n", *seeds)
		os.Exit(2)
	}
	oneSeedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			oneSeedSet = true
		}
	})
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	opt := synth.CheckOptions{Latency: *latency, DiffBurst: *diffB, DiffCheckpoint: *diffCkpt}
	if *quick && opt.Latency == 0 {
		opt.Latency = 60
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	// Seed feed: a fixed range, a single seed, or a deadline-bounded
	// open-ended stream.
	seedCh := make(chan uint64)
	go func() {
		defer close(seedCh)
		switch {
		case oneSeedSet:
			seedCh <- *oneSeed
		case *duration > 0:
			deadline := time.Now().Add(*duration)
			for s := *start; time.Now().Before(deadline); s++ {
				seedCh <- s
			}
		default:
			for s := *start; s < *start+uint64(*seeds); s++ {
				seedCh <- s
			}
		}
	}()

	// Outcomes stream as they complete (failures to stderr immediately —
	// a long -duration run must not sit silent on a hit, nor buffer
	// per-seed Reports for hours); only counters and the lowest failing
	// seed are retained.
	began := time.Now()
	var mu sync.Mutex
	var checked, failures, pfWins int
	var firstFail *outcome
	record := func(seed uint64, rep *synth.Report, err error) {
		mu.Lock()
		defer mu.Unlock()
		checked++
		if err != nil {
			failures++
			if firstFail == nil || seed < firstFail.seed {
				firstFail = &outcome{seed: seed, err: err}
			}
			fmt.Fprintf(os.Stderr, "FAIL seed %d: %v\n", seed, err)
			return
		}
		if rep.PFCycles < rep.OrigCycles {
			pfWins++
		}
		if *verbose {
			fmt.Printf("ok seed %d: %s orig=%d pf=%d decoupled=%.0f%%\n",
				seed, rep.Scenario.Summary(), rep.OrigCycles, rep.PFCycles,
				100*rep.Decoupled)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Per-worker machine pool: every seed on this goroutine
			// reuses built machines; pools never cross goroutines.
			wopt := opt
			wopt.Pool = cell.NewPool()
			for seed := range seedCh {
				rep, err := synth.CheckSeed(seed, wopt)
				record(seed, rep, err)
			}
		}()
	}
	wg.Wait()
	fmt.Printf("dtafuzz: %d seeds in %.1fs, %d failed, prefetch faster on %d/%d (generator %s)\n",
		checked, time.Since(began).Seconds(), failures, pfWins, checked-failures,
		synth.GenVersion)

	if *tracePath != "" && oneSeedSet {
		// Timeline of the single checked seed: both simulations re-run
		// with recording on (shrink below overwrites with the minimised
		// scenario's timeline if it runs).
		if err := writeScenarioTrace(*tracePath, synth.FromSeed(*oneSeed), opt); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "trace for seed %d written to %s\n", *oneSeed, *tracePath)
		}
	}
	if *profPath != "" && oneSeedSet {
		// Guest cycle profiles of the single checked seed, original and
		// prefetch-transformed side by side (shrink overwrites with the
		// minimised scenario's profiles if it runs).
		if err := writeScenarioProfiles(*profPath, synth.FromSeed(*oneSeed), opt); err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
		}
	}
	if failures == 0 {
		return
	}
	stopProf() // the remaining paths exit without running defers
	if *shrink {
		de, ok := firstFail.err.(*synth.DivergenceError)
		if !ok {
			fmt.Fprintf(os.Stderr, "cannot shrink non-divergence error: %v\n", firstFail.err)
			os.Exit(1)
		}
		res, err := synth.Shrink(de.Scenario, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shrink failed: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reproducer: %v\n", err)
			os.Exit(1)
		}
		werr := synth.WriteReproducer(f, res, opt)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		fmt.Fprintf(os.Stderr, "shrunk seed %d to %d instructions (%d probes): %s\n",
			firstFail.seed, res.CodeLen, res.Probes, res.Minimal.Summary())
		if werr != nil {
			fmt.Fprintf(os.Stderr, "reproducer write to %s FAILED (artifact may be truncated): %v\n", *out, werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "reproducer written to %s\n", *out)
		if *tracePath != "" {
			if err := writeScenarioTrace(*tracePath, res.Minimal, opt); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "reproducer trace written to %s\n", *tracePath)
			}
		}
		if *profPath != "" {
			if err := writeScenarioProfiles(*profPath, res.Minimal, opt); err != nil {
				fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			}
		}
	}
	os.Exit(1)
}

// writeScenarioProfiles re-runs a scenario's two simulations with the
// guest cycle profiler and writes one gzipped pprof protobuf per
// variant — <path>-orig and <path>-pf (the suffix lands before the
// extension), so `go tool pprof -top` can compare the original and
// prefetch-transformed attributions side by side (see OBSERVABILITY.md).
func writeScenarioProfiles(path string, sc synth.Scenario, opt synth.CheckOptions) error {
	p, err := synth.ProfileScenario(sc, opt)
	if err != nil {
		return err
	}
	for _, v := range []struct {
		suffix string
		run    prof.Run
	}{
		{"orig", prof.Run{Label: "sim-orig " + sc.Summary(), Prog: p.OrigProg, Prof: p.Orig}},
		{"pf", prof.Run{Label: "sim-pf " + sc.Summary(), Prog: p.PFProg, Prof: p.PF}},
	} {
		out := suffixPath(path, v.suffix)
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := prof.Write(f, []prof.Run{v.run}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s profile for %s written to %s\n", v.suffix, sc.Summary(), out)
	}
	return nil
}

// suffixPath inserts -suffix before the path's extension(s):
// guest.pb.gz -> guest-orig.pb.gz, guest -> guest-orig.
func suffixPath(path, suffix string) string {
	base := filepath.Base(path)
	if i := strings.Index(base, "."); i >= 0 {
		return filepath.Join(filepath.Dir(path), base[:i]+"-"+suffix+base[i:])
	}
	return path + "-" + suffix
}

// writeScenarioTrace re-runs a scenario's two simulations with
// timeline recording and writes one Chrome trace-event document (see
// OBSERVABILITY.md) pairing the original and prefetch-transformed
// schedules.
func writeScenarioTrace(path string, sc synth.Scenario, opt synth.CheckOptions) error {
	rec, err := synth.RecordScenario(sc, opt, 0)
	if err != nil {
		return err
	}
	runs := []obs.TraceRun{
		{Label: "sim-orig " + sc.Summary(), SPEs: rec.SPEs, Rec: rec.Orig},
		{Label: "sim-pf " + sc.Summary(), SPEs: rec.SPEs, Rec: rec.PF},
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(f, runs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

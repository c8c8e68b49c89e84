package synth

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/trace"
)

// Recording is the timeline pair of one scenario: the original program
// and its prefetch-transformed variant, each run once with full
// component recording (see cell.Config.Record). Feed the recorders to
// obs.WriteTrace to inspect a reproducer's schedule in Perfetto.
type Recording struct {
	SPEs int
	Orig *trace.Recorder
	PF   *trace.Recorder
}

// RecordScenario re-runs sc's two simulations with timeline recording
// enabled. The runs are fresh machines (never pooled — a pooled
// machine's recorder is reset on reuse) and recording does not perturb
// results: spans are emitted at completion sites outside the cycle
// kernel. spanCap bounds each recorder track (0 = trace.DefaultSpanCap).
func RecordScenario(sc Scenario, opt CheckOptions, spanCap int) (*Recording, error) {
	sc = sc.Normalize()
	opt = opt.withDefaults()

	prog, err := Generate(sc)
	if err != nil {
		return nil, fmt.Errorf("synth: generate seed %d: %w", sc.Seed, err)
	}
	pfProg, err := opt.Transform(prog)
	if err != nil {
		return nil, fmt.Errorf("synth: transform seed %d: %w", sc.Seed, err)
	}

	cfg := cell.DefaultConfig()
	cfg.SPEs = sc.SPEs
	cfg.Mem.Latency = opt.Latency
	cfg.MaxCycles = opt.MaxCycles
	cfg.Record = true
	cfg.RecordCap = spanCap

	rec := &Recording{SPEs: sc.SPEs}
	origM, err := cell.New(cfg, prog)
	if err != nil {
		return nil, fmt.Errorf("synth: build sim-orig: %w", err)
	}
	origRes, err := origM.Run()
	if err != nil {
		return nil, fmt.Errorf("synth: record sim-orig: %w", err)
	}
	rec.Orig = origRes.Rec

	pfM, err := cell.New(cfg, pfProg)
	if err != nil {
		return nil, fmt.Errorf("synth: build sim-pf: %w", err)
	}
	pfRes, err := pfM.Run()
	if err != nil {
		return nil, fmt.Errorf("synth: record sim-pf: %w", err)
	}
	rec.PF = pfRes.Rec
	return rec, nil
}

package synth

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/program"
	"repro/internal/stats"
)

// Profiles is the guest-profile pair of one scenario: the original
// program and its prefetch-transformed variant, each run once with the
// cycle profiler on (see cell.Config.Profile). The programs ride along
// because they symbolize the profiles — internal/prof.Run wants both.
type Profiles struct {
	SPEs     int
	OrigProg *program.Program
	PFProg   *program.Program
	Orig     *stats.Profile
	PF       *stats.Profile
}

// ProfileScenario re-runs sc's two simulations with the guest cycle
// profiler enabled. Like RecordScenario the runs are fresh machines
// (never pooled — a pooled machine's profile is cleared on reuse) and
// profiling does not perturb results: the profile mirrors charges the
// stats breakdown already makes.
func ProfileScenario(sc Scenario, opt CheckOptions) (*Profiles, error) {
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
	cfg.Profile = true

	p := &Profiles{SPEs: sc.SPEs, OrigProg: prog, PFProg: pfProg}
	origM, err := cell.New(cfg, prog)
	if err != nil {
		return nil, fmt.Errorf("synth: build sim-orig: %w", err)
	}
	origRes, err := origM.Run()
	if err != nil {
		return nil, fmt.Errorf("synth: profile sim-orig: %w", err)
	}
	p.Orig = origRes.Prof

	pfM, err := cell.New(cfg, pfProg)
	if err != nil {
		return nil, fmt.Errorf("synth: build sim-pf: %w", err)
	}
	pfRes, err := pfM.Run()
	if err != nil {
		return nil, fmt.Errorf("synth: profile sim-pf: %w", err)
	}
	p.PF = pfRes.Prof
	return p, nil
}

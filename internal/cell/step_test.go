package cell

import (
	"fmt"
	"testing"

	"repro/internal/program"
	"repro/internal/sim"
)

// TestMachineStepMatchesRun is the slice-fidelity contract at the
// machine level: driving a machine with Step slices of any size must
// produce a Result identical to Run in every reported number.
func TestMachineStepMatchesRun(t *testing.T) {
	cfg := smallConfig(2)
	for _, p := range []struct {
		name string
		prog *program.Program
	}{
		{"loop", progLoop(t, 500)},
		{"forkjoin", progForkJoin(t, 6)},
		{"memory", progMemory(t)},
		{"dma", progManualDMA(t)},
	} {
		want := run(t, cfg, p.prog)
		for _, budget := range []sim.Cycle{1, 17, 1000, 1 << 16} {
			m, err := New(cfg, p.prog)
			if err != nil {
				t.Fatalf("%s: New: %v", p.name, err)
			}
			steps := 0
			for {
				st, err := m.Step(budget)
				if err != nil {
					t.Fatalf("%s budget=%d: Step: %v", p.name, budget, err)
				}
				if st == StepDone {
					break
				}
				steps++
				if steps > 10_000_000 {
					t.Fatalf("%s budget=%d: no progress", p.name, budget)
				}
			}
			got, err := m.Finish()
			if err != nil {
				t.Fatalf("%s budget=%d: Finish: %v", p.name, budget, err)
			}
			resultsIdentical(t, want, got, fmt.Sprintf("%s budget=%d", p.name, budget))
		}
	}
}

// TestPoolCap checks the free list stops growing at the pool's cap
// and that NewPoolCap(0) stays unbounded.
func TestPoolCap(t *testing.T) {
	cfg := smallConfig(1)
	prog := progMinimal(t)
	fill := func(p *Pool, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			m, err := New(cfg, prog)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			p.Put(m)
		}
	}
	p := NewPoolCap(3)
	fill(p, 5)
	if got := p.Idle(cfg); got != 3 {
		t.Fatalf("capped pool retains %d machines, want 3", got)
	}
	if m, err := p.Get(cfg, prog); err != nil || m == nil {
		t.Fatalf("Get from capped pool: %v", err)
	}
	if got := p.Idle(cfg); got != 2 {
		t.Fatalf("after Get: %d idle, want 2", got)
	}

	unbounded := NewPoolCap(0)
	fill(unbounded, DefaultPoolCap+2)
	if got := unbounded.Idle(cfg); got != DefaultPoolCap+2 {
		t.Fatalf("unbounded pool retains %d machines, want %d", got, DefaultPoolCap+2)
	}

	def := NewPool()
	fill(def, DefaultPoolCap+5)
	if got := def.Idle(cfg); got != DefaultPoolCap {
		t.Fatalf("default pool retains %d machines, want %d", got, DefaultPoolCap)
	}
}

// TestPoolEvictsOldestAcrossConfigs: the cap counts idle machines of
// every configuration together, and a full pool makes room by dropping
// the machine returned longest ago, whatever its configuration.
func TestPoolEvictsOldestAcrossConfigs(t *testing.T) {
	prog := progMinimal(t)
	cfgs := make([]Config, 3)
	for i := range cfgs {
		cfgs[i] = smallConfig(1)
		cfgs[i].Mem.Latency = 10 * (i + 1)
	}
	build := func(cfg Config) *Machine {
		t.Helper()
		m, err := New(cfg, prog)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return m
	}
	p := NewPoolCap(2)
	p.Put(build(cfgs[0]))
	p.Put(build(cfgs[1]))
	// Reuse cfgs[0]: it becomes the most recently returned.
	m, err := p.Get(cfgs[0], prog)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(m)
	p.Put(build(cfgs[2])) // full: evicts cfgs[1], the oldest
	for i, want := range []int{1, 0, 1} {
		if got := p.Idle(cfgs[i]); got != want {
			t.Fatalf("config %d: %d idle, want %d", i, got, want)
		}
	}
}

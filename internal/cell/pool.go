package cell

import (
	"sync/atomic"

	"repro/internal/program"
)

// Process-wide pool counters, aggregated across every Pool (pools are
// per-worker, so per-instance counters would be invisible to a scrape).
// Exposed as dtad_pool_* by the service's metrics registry.
var (
	// PoolGets counts Get calls served (hit or miss).
	PoolGets atomic.Int64
	// PoolMisses counts Gets that had to build a fresh machine.
	PoolMisses atomic.Int64
	// PoolPuts counts machines returned to a pool.
	PoolPuts atomic.Int64
	// PoolDrops counts idle machines evicted over the pool's cap.
	PoolDrops atomic.Int64
)

// Pool recycles built machines keyed by configuration so repeated runs
// (parameter sweeps, fuzz campaigns, service workers) amortise machine
// construction — component graphs, 156 kB local stores, sparse-memory
// pages — instead of rebuilding them per run. Machines are reset on
// acquisition, so a released machine's final state (memory image,
// statistics) stays readable until it is handed out again.
//
// A Pool is NOT safe for concurrent use: it is deliberately a
// per-worker object (one per harness sweep context, dtad worker or
// dtafuzz goroutine), which keeps every simulation single-threaded and
// deterministic with zero locking.
type Pool struct {
	free map[Config][]*Machine
	idle []*Machine // every idle machine, least recently returned first
	cap  int        // max idle machines retained in total (0 = unbounded)
}

// DefaultPoolCap bounds the idle machines NewPool retains across all
// configurations. A sweep worker runs one simulation at a time and
// reuses a handful of configurations heavily (the paper operating point,
// the SPE-count sweep) while most ablation variants run once, so a small
// least-recently-returned cap keeps the reuse while a long-lived worker
// (a whole sweep, a dtad worker serving arbitrary latencies) cannot
// accumulate retired 156 kB-per-SPE local-store images without bound.
const DefaultPoolCap = 8

// NewPool returns an empty machine pool with the default per-config
// free-list cap.
func NewPool() *Pool {
	return NewPoolCap(DefaultPoolCap)
}

// NewPoolCap returns an empty machine pool retaining at most capacity
// idle machines in total; capacity <= 0 means unbounded.
func NewPoolCap(capacity int) *Pool {
	if capacity < 0 {
		capacity = 0
	}
	return &Pool{free: make(map[Config][]*Machine), cap: capacity}
}

// Get returns a machine for cfg ready to run prog: a pooled machine
// reset to the program, or a newly built one when none is available.
func (p *Pool) Get(cfg Config, prog *program.Program) (*Machine, error) {
	PoolGets.Add(1)
	if p == nil {
		PoolMisses.Add(1)
		return New(cfg, prog)
	}
	if ms := p.free[cfg]; len(ms) > 0 {
		m := ms[len(ms)-1]
		p.setFree(cfg, ms[:len(ms)-1])
		for i := len(p.idle) - 1; i >= 0; i-- {
			if p.idle[i] == m {
				p.dropIdle(i)
				break
			}
		}
		if err := m.Reset(prog); err != nil {
			// The program does not fit this configuration; a fresh
			// build reports the same validation error.
			return New(cfg, prog)
		}
		return m, nil
	}
	PoolMisses.Add(1)
	return New(cfg, prog)
}

// Put returns a machine to the pool. The caller must not use it
// afterwards (its memory image remains valid only until the next Get).
// When the pool is full, the idle machine returned longest ago is
// dropped for the garbage collector to make room.
func (p *Pool) Put(m *Machine) {
	if p == nil || m == nil {
		return
	}
	if p.cap > 0 && len(p.idle) >= p.cap {
		// The oldest idle machine is also the oldest of its
		// configuration, so it sits at the front of that free list.
		old := p.idle[0]
		p.dropIdle(0)
		ms := p.free[old.cfg]
		ms[0] = nil // let the collector have it
		p.setFree(old.cfg, ms[1:])
		PoolDrops.Add(1)
	}
	PoolPuts.Add(1)
	p.free[m.cfg] = append(p.free[m.cfg], m)
	p.idle = append(p.idle, m)
}

// dropIdle removes idle[i], clearing the vacated slot so the backing
// array keeps no evicted machine alive.
func (p *Pool) dropIdle(i int) {
	n := len(p.idle) - 1
	copy(p.idle[i:], p.idle[i+1:])
	p.idle[n] = nil
	p.idle = p.idle[:n]
}

// setFree stores cfg's free list, forgetting configurations with no idle
// machine so a long-lived pool's map does not grow with every
// configuration it has ever served.
func (p *Pool) setFree(cfg Config, ms []*Machine) {
	if len(ms) == 0 {
		delete(p.free, cfg)
		return
	}
	p.free[cfg] = ms
}

// Idle reports how many machines are retained for cfg (for tests).
func (p *Pool) Idle(cfg Config) int {
	if p == nil {
		return 0
	}
	return len(p.free[cfg])
}

package service

import (
	"sync/atomic"

	"repro/internal/harness"
)

// SharedStates gauges the shared root contexts currently held by worker
// state registries — in use by a job or idling warm — across the
// process. Exposed as dtad_batch_shared_states.
var SharedStates atomic.Int64

// stateKey identifies the Options fields that shape programs: two jobs
// agreeing on Quick and Seed build byte-identical programs for a given
// benchmark, so they may share one context's run and program caches.
// Every other Options field (latency, SPE budget) is folded into each
// simulation's run-cache key and needs no separation here — see
// harness.Context.Sub.
type stateKey struct {
	quick bool
	seed  uint64
}

// stateIdleCap bounds how many zero-ref states a registry keeps warm.
// A state holds a machine pool and every result its jobs computed, so
// the cap trades memory for the chance that the next sweep rejoins a
// warm cache; sweeps target one operating point at a time, so a few
// entries cover the realistic churn.
const stateIdleCap = 4

type stateEntry struct {
	root *harness.Context
	refs int
}

// stateRegistry hands out refcounted root contexts keyed by stateKey, so
// every job of one worker whose Options agree on the program-shaping
// fields runs on a Sub of one root and shares its run, program and
// checkpoint caches and its machine pool. Per-worker and lock-free like
// the caches it manages. Zero-ref roots idle in LRU order up to
// stateIdleCap before eviction.
type stateRegistry struct {
	ckpts  *harness.CheckpointCache
	states map[stateKey]*stateEntry
	idle   []stateKey // zero-ref states, coldest first
}

func newStateRegistry(ckpts *harness.CheckpointCache) *stateRegistry {
	return &stateRegistry{ckpts: ckpts, states: make(map[stateKey]*stateEntry)}
}

// acquire returns the shared root context for opt's program-shaping
// fields, creating it on first use, and takes a reference that release
// drops. Callers run jobs on root.Sub(job options).
func (r *stateRegistry) acquire(opt harness.Options) *harness.Context {
	opt = opt.WithDefaults()
	k := stateKey{opt.Quick, opt.Seed}
	e := r.states[k]
	if e == nil {
		root := harness.NewContext(opt)
		if r.ckpts != nil {
			root.SetCheckpointCache(r.ckpts)
		}
		e = &stateEntry{root: root}
		r.states[k] = e
		SharedStates.Add(1)
	} else if e.refs == 0 {
		r.unidle(k)
	}
	e.refs++
	return e.root
}

// release drops one reference; the last reference parks the state on
// the idle list, evicting the coldest idler beyond the cap.
func (r *stateRegistry) release(opt harness.Options) {
	opt = opt.WithDefaults()
	k := stateKey{opt.Quick, opt.Seed}
	e := r.states[k]
	if e == nil || e.refs == 0 {
		return
	}
	if e.refs--; e.refs > 0 {
		return
	}
	r.idle = append(r.idle, k)
	for len(r.idle) > stateIdleCap {
		cold := r.idle[0]
		r.idle = r.idle[1:]
		delete(r.states, cold)
		SharedStates.Add(-1)
	}
}

func (r *stateRegistry) unidle(k stateKey) {
	for i, ik := range r.idle {
		if ik == k {
			r.idle = append(r.idle[:i], r.idle[i+1:]...)
			return
		}
	}
}

package service

import (
	"testing"

	"repro/internal/harness"
)

// TestStateRegistrySharing: jobs agreeing on Quick/Seed get the same
// root context; any disagreement gets a distinct one.
func TestStateRegistrySharing(t *testing.T) {
	r := newStateRegistry(nil)
	a := r.acquire(harness.Options{Quick: true})
	b := r.acquire(harness.Options{Quick: true, SPEs: 4, Latency: 500})
	if a != b {
		t.Fatal("same Quick/Seed: states not shared")
	}
	c := r.acquire(harness.Options{Quick: false})
	if c == a {
		t.Fatal("different Quick: state shared")
	}
	d := r.acquire(harness.Options{Quick: true, Seed: 7})
	if d == a {
		t.Fatal("different Seed: state shared")
	}
}

// TestStateRegistryRefcountAndIdle: a state survives its last release
// on the idle list and is rejoined warm; beyond the idle cap the
// coldest state is evicted and a fresh acquire builds a new one. The
// SharedStates gauge tracks every transition.
func TestStateRegistryRefcountAndIdle(t *testing.T) {
	base := SharedStates.Load()
	r := newStateRegistry(nil)
	opt := harness.Options{Quick: true}
	st := r.acquire(opt)
	if got := SharedStates.Load() - base; got != 1 {
		t.Fatalf("gauge after first acquire: %d, want 1", got)
	}
	r.release(opt)
	if got := r.acquire(opt); got != st {
		t.Fatal("released state not rejoined warm from the idle list")
	}
	r.release(opt)

	// Push stateIdleCap+1 more distinct idle states: the original (the
	// coldest idler) must fall off, and the gauge must follow.
	for i := 0; i < stateIdleCap+1; i++ {
		o := harness.Options{Quick: true, Seed: uint64(100 + i)}
		r.acquire(o)
		r.release(o)
	}
	if got := SharedStates.Load() - base; got != int64(stateIdleCap) {
		t.Fatalf("gauge after churn: %d, want %d", got, stateIdleCap)
	}
	if got := r.acquire(opt); got == st {
		t.Fatal("evicted state still served")
	}
}

// TestStateRegistryConcurrentRefs: overlapping acquires of one key
// share the state and the state stays resident until the last release.
func TestStateRegistryConcurrentRefs(t *testing.T) {
	r := newStateRegistry(nil)
	opt := harness.Options{Quick: true}
	a := r.acquire(opt)
	b := r.acquire(opt)
	if a != b {
		t.Fatal("overlapping acquires returned distinct states")
	}
	r.release(opt)
	// Still referenced: churning the idle list must not evict it.
	for i := 0; i < stateIdleCap+2; i++ {
		o := harness.Options{Quick: true, Seed: uint64(200 + i)}
		r.acquire(o)
		r.release(o)
	}
	if got := r.acquire(opt); got != a {
		t.Fatal("referenced state was evicted")
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/cell"
	"repro/internal/harness"
	"repro/internal/service"
)

// counters is one reading of the process-global counters the benchmark
// uses. readCounters is the only place that reads them, so moving the
// counters onto instances re-points that one function.
type counters struct {
	runsExecuted int64 // harness simulations computed
	runCacheHits int64 // harness results served from a run cache
	ckptHits     int64 // forks seeded from a cached snapshot
	ckptMisses   int64 // forks that simulated their warm-up prefix
	poolGets     int64 // cell.Pool.Get calls
	poolMisses   int64 // Pool.Get calls that built a new machine

	// svc is dtad's /v1/stats document; nil unless a stats URL was given.
	svc *service.StatsDoc
}

// readCounters reads the process-global counters and, when statsURL is
// not empty, the dtad /v1/stats document served there.
func readCounters(client *http.Client, statsURL string) (counters, error) {
	c := counters{
		runsExecuted: harness.RunsExecuted.Load(),
		runCacheHits: harness.RunCacheHits.Load(),
		ckptHits:     harness.CheckpointHits.Load(),
		ckptMisses:   harness.CheckpointMisses.Load(),
		poolGets:     cell.PoolGets.Load(),
		poolMisses:   cell.PoolMisses.Load(),
	}
	if statsURL == "" {
		return c, nil
	}
	resp, err := client.Get(statsURL)
	if err != nil {
		return c, fmt.Errorf("read dtad stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("read dtad stats: status %s", resp.Status)
	}
	c.svc = new(service.StatsDoc)
	if err := json.NewDecoder(resp.Body).Decode(c.svc); err != nil {
		return c, fmt.Errorf("decode dtad stats: %w", err)
	}
	return c, nil
}

// since returns the process-global counter deltas from before to c.
func (c counters) since(before counters) counters {
	return counters{
		runsExecuted: c.runsExecuted - before.runsExecuted,
		runCacheHits: c.runCacheHits - before.runCacheHits,
		ckptHits:     c.ckptHits - before.ckptHits,
		ckptMisses:   c.ckptMisses - before.ckptMisses,
		poolGets:     c.poolGets - before.poolGets,
		poolMisses:   c.poolMisses - before.poolMisses,
		svc:          c.svc,
	}
}

// counterMetrics are the per-layer metrics every workload derives from
// a counter delta.
func (c counters) counterMetrics() []metric {
	return []metric{
		{"harness.simulations", "count", float64(c.runsExecuted), 1},
		{"harness.run_cache_hit_ratio", "ratio", ratio(float64(c.runCacheHits), float64(c.runCacheHits+c.runsExecuted)), 1},
		{"harness.checkpoint_hit_ratio", "ratio", ratio(float64(c.ckptHits), float64(c.ckptHits+c.ckptMisses)), 1},
		{"cell.pool_miss_ratio", "ratio", ratio(float64(c.poolMisses), float64(c.poolGets)), 1},
	}
}

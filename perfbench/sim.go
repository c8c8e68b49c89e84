package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"repro/internal/cell"
	"repro/internal/prefetch"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// point is one program point of the blocking and prefetch workloads.
type point struct {
	bench   string
	n       int
	spes    int
	latency int
}

func (p point) String() string {
	return fmt.Sprintf("%s(%d) spes=%d lat=%d", p.bench, p.n, p.spes, p.latency)
}

// simPoints are the paper-size program points: mmul(32) and zoom(32) at
// 1, 2, 4 and 8 SPEs plus bitcnt(10000) at 8 SPEs, each at memory
// latency 150 and 600.
func simPoints() []point {
	var ps []point
	for _, lat := range []int{150, 600} {
		for _, b := range []string{"mmul", "zoom"} {
			for _, spes := range []int{1, 2, 4, 8} {
				ps = append(ps, point{b, 32, spes, lat})
			}
		}
		ps = append(ps, point{"bitcnt", 10000, 8, lat})
	}
	return ps
}

// params and config mirror the harness's paper operating point.
func (p point) params(seed uint64) workloads.Params {
	prm := workloads.Params{N: p.n, Seed: seed}
	if p.bench != "bitcnt" {
		prm.Workers = workloads.AutoWorkers(p.spes, 32)
	}
	return prm
}

func (p point) config() cell.Config {
	cfg := cell.DefaultConfig()
	cfg.SPEs = p.spes
	cfg.Mem.Latency = p.latency
	return cfg
}

// build builds p's program for seed, transformed when pf is set.
func build(tr *tracer, parent *span, req int64, p point, seed uint64, pf bool) (*program.Program, error) {
	w, ok := workloads.Get(p.bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %s", p.bench)
	}
	sp := tr.start("workloads.Build", parent, req)
	prog, err := w.Build(p.params(seed))
	sp.end()
	if err != nil || !pf {
		return prog, err
	}
	sp = tr.start("prefetch.Transform", parent, req)
	defer sp.end()
	return prefetch.Transform(prog)
}

// simSetup builds every program point and a new machine for it: what
// a process pays before its first pass, when every pool is empty.
func simSetup(pf bool) func(seed uint64) error {
	return func(seed uint64) error {
		for _, p := range simPoints() {
			prog, err := build(nil, nil, 0, p, seed, pf)
			if err != nil {
				return err
			}
			if _, err := cell.New(p.config(), prog); err != nil {
				return err
			}
		}
		return nil
	}
}

// simTotals sums the simulated statistics of a window's simulations.
type simTotals struct {
	cycles, messages, busy, scalarReads, blockReads, portBusy int64
	slots, blockingRead, dmaWait                              int64
	gets, puts, queueFull, tagWaits                           int64
	threads, remoteStores, bufferWaits, dseStalls             int64
	maxQueue                                                  int
	breakdown                                                 stats.Breakdown
}

func (t *simTotals) add(r *cell.Result) {
	t.cycles += int64(r.Cycles)
	t.messages += r.Net.Messages
	t.busy += r.Net.BusyCycles
	t.maxQueue = max(t.maxQueue, r.Net.MaxQueue)
	t.scalarReads += r.Mem.ScalarReads
	t.blockReads += r.Mem.BlockReads
	t.portBusy += r.Mem.PortBusy
	t.slots += r.Agg.IssuedSlots
	t.blockingRead += r.Agg.Causes[stats.CauseBlockingRead]
	t.dmaWait += r.Agg.Causes[stats.CauseDMAWait]
	t.breakdown.Merge(r.Agg.Breakdown)
	for _, m := range r.MFCs {
		t.gets += m.Gets
		t.puts += m.Puts
		t.queueFull += m.QueueFull
		t.tagWaits += m.TagWaits
	}
	for _, l := range r.LSEs {
		t.threads += l.Threads
		t.remoteStores += l.RemoteStores
		t.bufferWaits += l.BufferWaits
	}
	for _, d := range r.DSEs {
		t.dseStalls += d.StallsAll
	}
}

// digestResult hashes every simulated statistic of one run.
func digestResult(h hash.Hash, r *cell.Result) {
	fmt.Fprintf(h, "%d|%v|%+v|%+v|%+v|%+v|%+v|%+v\n",
		r.Cycles, r.Tokens, r.SPUs, r.LSEs, r.MFCs, r.DSEs, r.Mem, r.Net)
}

func resultDigest(r *cell.Result) string {
	h := sha256.New()
	digestResult(h, r)
	return hex.EncodeToString(h.Sum(nil))
}

// simRun measures passes over every program point until the window
// closes. Pass k uses input seed seed+k. One worker runs the passes and
// recycles machines through a cell.Pool as the harness's workers do: a
// second worker on this benchmark's two-CPU reference host made the
// figures spread twice as wide from run to run. In a traced run the
// passes pair up: both passes of a pair use the same seed, one traced
// and one not (see tracedUnit), and must produce identical results.
func simRun(pf bool) func(e env) (*phaseResult, error) {
	return func(e env) (*phaseResult, error) {
		points := simPoints()
		pool := cell.NewPool()
		res := &phaseResult{}
		var (
			passSecs, passCPS []float64
			opMS              = make(map[string][]float64)
			tot               simTotals
			pass0             []*cell.Result
			pairDigests       []string
			sims              int
		)
		before, err := readCounters(nil, "")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for pass := 0; another(start, e.window, passSecs); pass++ {
			seed := e.seed + uint64(pass)
			if e.tr != nil {
				seed = e.seed + uint64(pass/2)
				e.tr.setOn(tracedUnit(pass))
			}
			t0 := time.Now()
			outs := runPass(e.tr, pool, points, seed, pf)
			wall := time.Since(t0)
			e.tr.setOn(true)

			var cycles int64
			digests := make([]string, len(points))
			for i, o := range outs {
				p := points[i]
				res.attempted++
				if o.err != nil {
					res.failed++
					res.report = append(res.report, fmt.Sprintf("FAILED %s seed=%d: %v", p, seed, o.err))
					continue
				}
				opMS[p.String()] = append(opMS[p.String()], o.ms)
				cycles += int64(o.r.Cycles)
				digests[i] = resultDigest(o.r)
				if e.tr == nil || tracedUnit(pass) {
					tot.add(o.r)
				}
				sims++
			}
			if pass == 0 {
				for _, o := range outs {
					if o.err == nil {
						pass0 = append(pass0, o.r)
					}
				}
			}
			if e.tr != nil && pass%2 == 1 {
				for i := range points {
					if digests[i] != pairDigests[i] {
						res.failed++
						res.report = append(res.report, fmt.Sprintf("TRACED/UNTRACED MISMATCH %s seed=%d", points[i], seed))
					}
				}
			}
			pairDigests = digests
			passSecs = append(passSecs, wall.Seconds())
			passCPS = append(passCPS, float64(cycles)/wall.Seconds())
			res.unitCost = append(res.unitCost, ratio(wall.Seconds(), float64(cycles)))
		}
		elapsed := time.Since(start)
		after, err := readCounters(nil, "")
		if err != nil {
			return nil, err
		}

		h := sha256.New()
		for _, r := range pass0 {
			digestResult(h, r)
		}
		res.digest = fmt.Sprintf("%x (pass 0: %d simulations)", h.Sum(nil)[:12], len(pass0))
		op, ops := kindQuantiles(opMS, 0.5, 0.9)
		res.e2e = []metric{
			{"sim_cycles_per_s", "cycles/s", median(passCPS), len(passCPS)},
			{"sweep_s", "s", median(passSecs), len(passSecs)},
			{"requests_per_s", "1/s", float64(sims) / elapsed.Seconds(), sims},
			{"op_ms_p50", "ms", op[0], ops},
			{"op_ms_p90", "ms", op[1], ops},
		}
		res.report = append(res.report, fmt.Sprintf(
			"%d passes over %d program points (%d simulations) in %.2fs",
			len(passSecs), len(points), sims, elapsed.Seconds()))

		if e.tr != nil {
			res.layers = simLayers(e.tr, &tot, after.since(before))
			lines, err := fidelity(pool, e.seed, pf, pass0, points)
			if err != nil {
				return nil, err
			}
			res.report = append(res.report, lines...)
			snapshotProbe(e.tr, e.seed, pf, pass0, points, res)
		}
		return res, nil
	}
}

// simOut is one simulation of a pass.
type simOut struct {
	r   *cell.Result
	ms  float64 // host latency of the whole operation: build, machine, run
	err error
}

// runPass simulates every point once and returns the outcomes.
func runPass(tr *tracer, pool *cell.Pool, points []point, seed uint64, pf bool) []simOut {
	outs := make([]simOut, len(points))
	for i, p := range points {
		req := tr.newReq()
		root := tr.start("bench.simulate", nil, req)
		t0 := time.Now()
		r, err := simulate(tr, root, req, pool, p, seed, pf)
		outs[i] = simOut{r, float64(time.Since(t0)) / float64(time.Millisecond), err}
		root.end()
	}
	return outs
}

// simulate builds p and runs it on a pooled machine, failing when the
// run errs or its functional check against the Go reference fails.
func simulate(tr *tracer, parent *span, req int64, pool *cell.Pool, p point, seed uint64, pf bool) (*cell.Result, error) {
	prog, err := build(tr, parent, req, p, seed, pf)
	if err != nil {
		return nil, err
	}
	m, err := getMachine(tr, parent, req, pool, p.config(), prog)
	if err != nil {
		return nil, err
	}
	sp := tr.start("sim.Machine.Run", parent, req)
	r, err := m.Run()
	sp.end()
	if err != nil {
		return nil, err
	}
	pool.Put(m)
	if r.CheckErr != nil {
		return nil, fmt.Errorf("functional check: %w", r.CheckErr)
	}
	return r, nil
}

// getMachine takes a machine from pool. Its span is named after what
// the pool does: reset a retained machine (cell.Machine.Reset) or build
// a new one (cell.New).
func getMachine(tr *tracer, parent *span, req int64, pool *cell.Pool, cfg cell.Config, prog *program.Program) (*cell.Machine, error) {
	name := "cell.New"
	if pool.Idle(cfg) > 0 {
		name = "cell.Machine.Reset"
	}
	sp := tr.start(name, parent, req)
	defer sp.end()
	return pool.Get(cfg, prog)
}

// simLayers derives the simulator's per-layer metrics. The ns-per-work
// ratios divide the host time spent in Machine.Run by each component's
// simulated work: an outside-in proxy for the component's cost.
func simLayers(tr *tracer, t *simTotals, c counters) []metric {
	var runNS float64
	for _, d := range tr.durations("sim.Machine.Run") {
		runNS += float64(d)
	}
	n := len(tr.durations("sim.Machine.Run"))
	ls := []metric{
		{"sim.run_s", "s", runNS / 1e9, n},
		{"sim.cycles", "count", float64(t.cycles), n},
		{"sim.ns_per_cycle", "ns", ratio(runNS, float64(t.cycles)), n},
		{"noc.messages", "count", float64(t.messages), n},
		{"noc.ns_per_message", "ns", ratio(runNS, float64(t.messages)), n},
		{"noc.busy_cycles", "count", float64(t.busy), n},
		{"noc.max_queue", "count", float64(t.maxQueue), n},
		{"mem.scalar_reads", "count", float64(t.scalarReads), n},
		{"mem.block_reads", "count", float64(t.blockReads), n},
		{"mem.port_busy", "count", float64(t.portBusy), n},
		{"spu.issued_slots", "count", float64(t.slots), n},
		{"spu.ns_per_issued_slot", "ns", ratio(runNS, float64(t.slots)), n},
		{"spu.stall_pct", "%", t.breakdown.StallPct(), n},
		{"spu.blocking_read_cycles", "count", float64(t.blockingRead), n},
		{"spu.dma_wait_cycles", "count", float64(t.dmaWait), n},
		{"mfc.gets", "count", float64(t.gets), n},
		{"mfc.puts", "count", float64(t.puts), n},
		{"mfc.queue_full", "count", float64(t.queueFull), n},
		{"mfc.tag_waits", "count", float64(t.tagWaits), n},
		{"dta.threads", "count", float64(t.threads), n},
		{"dta.remote_stores", "count", float64(t.remoteStores), n},
		{"dta.buffer_waits", "count", float64(t.bufferWaits), n},
		{"dta.dse_stalls", "count", float64(t.dseStalls), n},
		medianMS("workloads.build_ms", tr.durations("workloads.Build")),
		medianMS("cell.new_ms", tr.durations("cell.New")),
		medianMS("cell.reset_ms", tr.durations("cell.Machine.Reset")),
	}
	if ts := tr.durations("prefetch.Transform"); len(ts) > 0 {
		ls = append(ls, medianMS("prefetch.transform_ms", ts))
	}
	return append(ls, c.counterMetrics()...)
}

// snapshotProbe runs every pass-0 program to its midpoint, encodes a
// snapshot, restores it into a pooled machine and finishes the run; the
// result must be identical to the cold run, or the probe counts as
// failed. It runs after the traced window and gives snapshot throughput
// its baseline. Its pool starts empty, so the first machine of every
// configuration is built by cell.New inside a span.
func snapshotProbe(tr *tracer, seed uint64, pf bool, cold []*cell.Result, points []point, res *phaseResult) {
	if len(cold) != len(points) {
		res.report = append(res.report, "snapshot probe skipped: pass 0 had failures")
		return
	}
	pool := cell.NewPool()
	var kb []float64
	var failed int64
	for i, p := range points {
		req := tr.newReq()
		root := tr.start("bench.snapshot_probe", nil, req)
		res.attempted++
		if err := probeOne(tr, root, req, pool, p, seed, pf, cold[i], &kb); err != nil {
			failed++
			res.report = append(res.report, fmt.Sprintf("SNAPSHOT PROBE FAILED %s: %v", p, err))
		}
		root.end()
	}
	res.failed += failed
	res.layers = append(res.layers,
		medianMS("snap.encode_ms", tr.durations("snap.EncodeSnapshot")),
		medianMS("snap.restore_ms", tr.durations("snap.RestoreSnapshot")),
		metric{"snap.kb", "kB", median(kb), len(kb)},
	)
	res.report = append(res.report, fmt.Sprintf(
		"snapshot probe: %d programs forked at their midpoint, %d differed from the cold run", len(points), failed))
}

func probeOne(tr *tracer, root *span, req int64, pool *cell.Pool, p point, seed uint64, pf bool, cold *cell.Result, kb *[]float64) error {
	prog, err := build(tr, root, req, p, seed, pf)
	if err != nil {
		return err
	}
	cfg := p.config()
	m, err := getMachine(tr, root, req, pool, cfg, prog)
	if err != nil {
		return err
	}
	mid := cold.Cycles / 2
	sp := tr.start("sim.Machine.RunTo", root, req)
	_, st, err := m.RunTo(mid)
	sp.end()
	if err != nil {
		return err
	}
	if st == cell.StepDone {
		return fmt.Errorf("run finished before its midpoint %d", mid)
	}
	key := cell.SnapshotKey(cfg, prog, sim.Cycle(mid))
	sp = tr.start("snap.EncodeSnapshot", root, req)
	blob, err := m.EncodeSnapshot(key)
	sp.end()
	if err != nil {
		return err
	}
	*kb = append(*kb, float64(len(blob))/1024)
	sp = tr.start("sim.Machine.Run", root, req)
	warm, err := m.Run()
	sp.end()
	if err != nil {
		return err
	}
	pool.Put(m)

	m, err = getMachine(tr, root, req, pool, cfg, prog)
	if err != nil {
		return err
	}
	sp = tr.start("snap.RestoreSnapshot", root, req)
	err = m.RestoreSnapshot(blob, key)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.start("sim.Machine.Run", root, req)
	forked, err := m.Run()
	sp.end()
	if err != nil {
		return err
	}
	pool.Put(m)
	want := resultDigest(cold)
	if resultDigest(warm) != want || resultDigest(forked) != want {
		return fmt.Errorf("result differs from the cold run (cycles cold %d, continued %d, forked %d)",
			cold.Cycles, warm.Cycles, forked.Cycles)
	}
	if forked.CheckErr != nil {
		return fmt.Errorf("functional check: %w", forked.CheckErr)
	}
	return nil
}

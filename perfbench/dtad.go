package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

// The dtad workload: an in-process service behind httptest on
// loopback, driven by one closed-loop client per CPU. The traffic
// follows the repository's CI dtad smoke test, which sends one run
// twice (a miss, then a hit with the same body) and submits identical
// sweeps concurrently. The clients work in epochs. An epoch opens with
// a barrier, after which every client submits the same quick figure
// sweep at once and streams it to its last line. Then each client runs
// every kind of single run once: the six single-run experiments at
// quick size at each latency of a small fixed set, each with a fresh
// seed and each sent twice in a row. So half the run requests repeat
// an earlier run key whatever the host speed, and every epoch carries
// the same mix.
var (
	singleExps    = []string{"bitcnt-orig", "bitcnt-pf", "mmul-orig", "mmul-pf", "zoom-orig", "zoom-pf"}
	sweepExps     = []string{"fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9"}
	dtadLatencies = []int{150, 300, 600}
)

// runKind is one kind of single-run request: an experiment at a
// latency.
type runKind struct {
	exp     string
	latency int
}

func (k runKind) String() string { return fmt.Sprintf("%s@%d", k.exp, k.latency) }

// runKinds lists every kind of single run once, rotated by the
// client's index so that concurrent clients start on different kinds.
func runKinds(client, clients int) []runKind {
	var ks []runKind
	for _, exp := range singleExps {
		for _, lat := range dtadLatencies {
			ks = append(ks, runKind{exp, lat})
		}
	}
	r := client * len(ks) / clients
	return append(ks[r:], ks[:r]...)
}

// runSeed is the fresh seed of the k-th run of client's epoch.
func runSeed(seed uint64, client, epoch, k int) uint64 {
	return mix(seed, 2, uint64(client), uint64(epoch), uint64(k))
}

// mix derives a well-spread 64-bit value from its arguments (splitmix64
// finaliser), so seeds of different roles never collide in practice.
func mix(vals ...uint64) uint64 {
	var x uint64 = 0x9e3779b97f4a7c15
	for _, v := range vals {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x | 1 // harness.Options treats seed 0 as "default"
}

// dtadSetup starts a service and its HTTP server, waits for the first
// answers, and shuts both down.
func dtadSetup(uint64) error {
	svc := service.New(service.Config{})
	srv := httptest.NewServer(svc.Handler())
	defer svc.Close()
	defer srv.Close()
	for _, path := range []string{"/healthz", "/v1/experiments"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", path, resp.Status)
		}
	}
	return nil
}

// sample is one completed single-run request.
type sample struct {
	key        string
	kind       runKind
	hit        bool
	traced     bool // sent in a traced epoch
	start, end time.Time
}

func (s sample) latency() time.Duration { return s.end.Sub(s.start) }

// dtadBench is the state of one dtad window.
type dtadBench struct {
	e        env
	base     string
	client   *http.Client
	deadline time.Time

	mu       sync.Mutex
	bodies   map[string][sha256.Size]byte // run key -> first body served
	barriers map[int]chan struct{}
	arrived  map[int]int
	opened   []time.Time // when each epoch's barrier opened
}

// clientState is one closed-loop client's tally.
type clientState struct {
	id                int
	samples           []sample
	sweeps            []time.Duration
	attempted, failed int64
	submissions       int64 // jobs the service was asked for
	fails             []string
}

func (c *clientState) fail(format string, args ...any) {
	c.failed++
	if len(c.fails) < 5 {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

func dtadRun(e env) (*phaseResult, error) {
	cfg := service.Config{Workers: e.workers}
	var jobs *jobRecorder
	if e.tr != nil {
		jobs = &jobRecorder{tr: e.tr}
		cfg.Logger = slog.New(jobs)
		traced := tracedExperiments(e.tr, harness.All())
		byID := make(map[string]*harness.Experiment, len(traced))
		for _, x := range traced {
			byID[x.ID] = x
		}
		cfg.Lookup = func(id string) (*harness.Experiment, bool) { x, ok := byID[id]; return x, ok }
		cfg.List = func() []*harness.Experiment { return traced }
	}
	svc := service.New(cfg)
	defer svc.Close()
	if jobs != nil {
		jobs.svc = svc
	}
	srv := httptest.NewServer(tracedHandler(e.tr, svc.Handler()))
	defer srv.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * e.workers}
	defer transport.CloseIdleConnections()

	d := &dtadBench{
		e: e, base: srv.URL, client: &http.Client{Transport: transport},
		bodies: make(map[string][sha256.Size]byte), barriers: make(map[int]chan struct{}),
		arrived: make(map[int]int),
	}
	before, err := readCounters(d.client, "")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	d.deadline = start.Add(e.window)
	clients := make([]*clientState, e.workers)
	var wg sync.WaitGroup
	for i := range clients {
		clients[i] = &clientState{id: i}
		wg.Add(1)
		go func(c *clientState) {
			defer wg.Done()
			d.loop(c)
		}(clients[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	e.tr.setOn(true)
	after, err := readCounters(d.client, d.base+"/v1/stats")
	if err != nil {
		return nil, err
	}

	res := &phaseResult{}
	var samples []sample
	var sweeps []time.Duration
	var submissions int64
	for _, c := range clients {
		samples = append(samples, c.samples...)
		sweeps = append(sweeps, c.sweeps...)
		res.attempted += c.attempted
		res.failed += c.failed
		submissions += c.submissions
		for _, f := range c.fails {
			res.report = append(res.report, fmt.Sprintf("FAILED client %d: %s", c.id, f))
		}
	}
	var jobMetrics []metric
	if jobs != nil {
		jobMetrics = jobs.metrics(samples) // before the probe adds jobs
	}
	d.probe(svc, len(clients), res)

	var hits, misses []float64
	missByKind := make(map[string][]float64)
	for _, s := range samples {
		l := float64(s.latency()) / float64(time.Millisecond)
		if s.hit {
			hits = append(hits, l)
		} else {
			misses = append(misses, l)
			missByKind[s.kind.String()] = append(missByKind[s.kind.String()], l)
		}
	}
	sweepMS := ms(sweeps)
	op, ops := kindQuantiles(missByKind, 0.5, 0.9)
	st := after.svc
	res.e2e = []metric{
		{"sim_cycles_per_s", "cycles/s", float64(st.SimCycles) / elapsed.Seconds(), int(st.Simulations)},
		{"sweep_s", "s", median(sweepMS) / 1e3, len(sweepMS)},
		{"requests_per_s", "1/s", float64(len(samples)+len(sweeps)) / elapsed.Seconds(), len(samples) + len(sweeps)},
		{"op_ms_p50", "ms", op[0], ops},
		{"op_ms_p90", "ms", op[1], ops},
	}
	res.report = append(res.report,
		fmt.Sprintf("%d clients, %d workers, %d epochs: %d run requests (%d cache hits) and %d sweep streams in %.2fs; %d simulations",
			len(clients), e.workers, len(d.opened), len(samples), len(hits), len(sweeps), elapsed.Seconds(), st.Simulations),
		"dtad latencies (X-Dtad-Cache hit or miss; sweep = POST to last NDJSON line):")
	for _, m := range []metric{
		{"hit_ms_p50", "ms", quantile(hits, 0.5), len(hits)},
		{"miss_ms_p50", "ms", quantile(misses, 0.5), len(misses)},
		{"miss_ms_p90", "ms", quantile(misses, 0.9), len(misses)},
		{"sweep_ms_p50", "ms", median(sweepMS), len(sweepMS)},
	} {
		res.report = append(res.report, fmt.Sprintf("  %-28s %-16.6g %-8s n=%d", m.Name, m.Value, m.Unit, m.N))
	}
	if e.tr != nil {
		c := after.since(before)
		res.layers = append(c.counterMetrics(),
			metric{"service.hit_ms_p50", "ms", quantile(hits, 0.5), len(hits)},
			metric{"service.cache_hit_ratio", "ratio", st.CacheHitRatio, int(st.Cache.Hits + st.Cache.Misses)},
			metric{"service.simulations", "count", float64(st.Simulations), 1},
			metric{"service.coalesced", "count", float64(submissions - st.Cache.Hits - st.Cache.Misses), int(submissions)},
			metric{"service.run_key_us", "us", median(ms(e.tr.durations("service.RunKey"))) * 1e3, len(e.tr.durations("service.RunKey"))},
			medianMS("service.encode_ms", e.tr.durations("service.EncodeResult")),
		)
		res.layers = append(res.layers, jobMetrics...)
		// Every epoch does the same work, so an epoch's length is its cost.
		for i := 0; i+1 < len(d.opened); i++ {
			res.unitCost = append(res.unitCost, d.opened[i+1].Sub(d.opened[i]).Seconds())
		}
	}
	return res, nil
}

// loop runs one closed-loop client, epoch after epoch, until the window
// closes.
func (d *dtadBench) loop(c *clientState) {
	kinds := runKinds(c.id, d.e.workers)
	for epoch := 0; d.await(epoch); epoch++ {
		d.sweep(c, epoch)
		for k, kind := range kinds {
			if !time.Now().Before(d.deadline) {
				return
			}
			opt := service.OptionsDoc{Quick: true, Latency: kind.latency, Seed: runSeed(d.e.seed, c.id, epoch, k)}
			if d.run(c, kind, opt) {
				d.run(c, kind, opt)
			}
		}
	}
}

// await blocks until every client reached the epoch's barrier, and
// reports false if the window closed first. The last client to arrive
// opens the epoch: in a traced run it switches tracing on or off for
// the epoch (see tracedUnit).
func (d *dtadBench) await(epoch int) bool {
	if !time.Now().Before(d.deadline) {
		return false
	}
	d.mu.Lock()
	ch := d.barriers[epoch]
	if ch == nil {
		ch = make(chan struct{})
		d.barriers[epoch] = ch
	}
	d.arrived[epoch]++
	if d.arrived[epoch] == d.e.workers {
		d.e.tr.setOn(tracedUnit(epoch))
		d.opened = append(d.opened, time.Now())
		close(ch)
	}
	d.mu.Unlock()
	timer := time.NewTimer(time.Until(d.deadline))
	defer timer.Stop()
	select {
	case <-ch:
		return true
	case <-timer.C:
		return false
	}
}

// run sends one synchronous run request, checks its answer, and
// reports whether it succeeded.
func (d *dtadBench) run(c *clientState, kind runKind, opt service.OptionsDoc) bool {
	tr := d.e.tr
	req := tr.newReq()
	root := tr.start("http.request", nil, req)
	defer root.end()
	sp := tr.start("service.RunKey", root, req)
	key := service.RunKey(kind.exp, opt.Harness())
	sp.end()
	c.attempted++
	body, err := json.Marshal(map[string]any{"experiment": kind.exp, "options": opt})
	if err != nil {
		c.fail("encode request: %v", err)
		return false
	}
	start := time.Now()
	resp, data, err := d.do(root, req, http.MethodPost, "/v1/runs", body)
	end := time.Now()
	if err != nil {
		c.fail("POST /v1/runs %s: %v", kind, err)
		return false
	}
	c.submissions++
	if resp.StatusCode/100 != 2 {
		c.fail("POST /v1/runs %s: %s: %s", kind, resp.Status, bytes.TrimSpace(data))
		return false
	}
	if !d.sameBody(key, data) {
		c.fail("run key %s: body differs from the first one served", key[:12])
		return false
	}
	c.samples = append(c.samples, sample{key: key, kind: kind, hit: resp.Header.Get("X-Dtad-Cache") == "hit",
		traced: tr.active(), start: start, end: end})
	return true
}

// sameBody records the first body served for key and reports whether
// data matches it.
func (d *dtadBench) sameBody(key string, data []byte) bool {
	sum := sha256.Sum256(bytes.TrimSuffix(data, []byte("\n")))
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev, ok := d.bodies[key]; ok {
		return prev == sum
	}
	d.bodies[key] = sum
	return true
}

// sweep submits the epoch's sweep and streams it to its last line.
func (d *dtadBench) sweep(c *clientState, epoch int) {
	tr := d.e.tr
	req := tr.newReq()
	root := tr.start("http.sweep", nil, req)
	defer root.end()
	opt := service.OptionsDoc{Quick: true, Seed: mix(d.e.seed, 3, uint64(epoch))}
	body, err := json.Marshal(map[string]any{"experiments": sweepExps, "options": opt})
	c.attempted++
	if err != nil {
		c.fail("encode sweep: %v", err)
		return
	}
	start := time.Now()
	resp, data, err := d.do(root, req, http.MethodPost, "/v1/sweeps", body)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		c.fail("POST /v1/sweeps: %v %s", err, bytes.TrimSpace(data))
		return
	}
	c.submissions += int64(len(sweepExps))
	var doc service.SweepDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		c.fail("decode sweep: %v", err)
		return
	}
	lines, err := d.stream(root, req, "/v1/sweeps/"+doc.Sweep+"/stream")
	if err != nil {
		c.fail("stream %s: %v", doc.Sweep, err)
		return
	}
	c.sweeps = append(c.sweeps, time.Since(start))
	c.attempted += int64(len(sweepExps)) - 1 // the POST counted one
	if len(lines) != len(sweepExps) {
		c.fail("stream %s: %d lines, want %d", doc.Sweep, len(lines), len(sweepExps))
	}
	for _, l := range lines {
		var rl service.RunLine
		if err := json.Unmarshal(l, &rl); err != nil || rl.Error != "" {
			c.fail("stream %s line: %v %s", doc.Sweep, err, rl.Error)
		}
	}
}

// do sends one request and reads the whole response.
func (d *dtadBench) do(parent *span, req int64, method, path string, body []byte) (*http.Response, []byte, error) {
	r, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	r.Header.Set("Content-Type", "application/json")
	setSpanHeaders(r, parent, req)
	resp, err := d.client.Do(r)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

// stream reads an NDJSON stream to its end.
func (d *dtadBench) stream(parent *span, req int64, path string) ([][]byte, error) {
	r, err := http.NewRequest(http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	setSpanHeaders(r, parent, req)
	resp, err := d.client.Do(r)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	var lines [][]byte
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			lines = append(lines, line)
		}
		if errors.Is(err, io.EOF) {
			return lines, nil
		}
		if err != nil {
			return lines, err
		}
	}
}

// probe runs after the window. It submits the run keys of every
// client's first epoch through Service.Submit; each result must equal
// the body served over HTTP, and the results' digest repeats exactly
// for a given seed and client count. It also runs the first of these
// keys for each experiment through the harness and
// service.EncodeResult, which must reproduce the served bytes.
func (d *dtadBench) probe(svc *service.Service, clients int, res *phaseResult) {
	tr := d.e.tr
	type entry struct {
		key string
		sum [sha256.Size]byte
	}
	var entries []entry
	encoded := make(map[string]bool)
	for c := 0; c < clients; c++ {
		for k, kind := range runKinds(c, clients) {
			opt := harness.Options{Quick: true, Latency: kind.latency, Seed: runSeed(d.e.seed, c, 0, k)}.WithDefaults()
			req := tr.newReq()
			sp := tr.start("service.Submit", nil, req)
			job, err := svc.Submit(kind.exp, opt)
			sp.end()
			res.attempted++
			if err != nil {
				res.failed++
				res.report = append(res.report, fmt.Sprintf("FAILED probe submit %s: %v", kind, err))
				continue
			}
			<-job.Done()
			key := service.RunKey(kind.exp, opt)
			if job.State != service.JobDone || !d.sameBody(key, job.Result) {
				res.failed++
				res.report = append(res.report, fmt.Sprintf("FAILED probe %s: state %s, or result differs from the served body", kind, job.State))
				continue
			}
			entries = append(entries, entry{key, sha256.Sum256(job.Result)})
			if encoded[kind.exp] {
				continue
			}
			encoded[kind.exp] = true
			res.attempted++
			if err := d.encodeProbe(kind.exp, opt, req, job.Result); err != nil {
				res.failed++
				res.report = append(res.report, fmt.Sprintf("FAILED encode probe %s: %v", kind, err))
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	h := sha256.New()
	for _, en := range entries {
		fmt.Fprintf(h, "%s %x\n", en.key, en.sum)
	}
	res.digest = fmt.Sprintf("%x (%d first-epoch run keys)", h.Sum(nil)[:12], len(entries))
}

func (d *dtadBench) encodeProbe(exp string, opt harness.Options, req int64, served []byte) error {
	x, ok := harness.ByID(exp)
	if !ok {
		return fmt.Errorf("unknown experiment")
	}
	r := harness.RunOn(harness.NewContext(opt), x)
	if r.Err != nil {
		return r.Err
	}
	sp := d.e.tr.start("service.EncodeResult", nil, req)
	data, err := service.EncodeResult(exp, opt, r.Outcome)
	sp.end()
	if err != nil {
		return err
	}
	if !bytes.Equal(data, served) {
		return fmt.Errorf("local encoding differs from the served body")
	}
	return nil
}

// Span propagation to the server side of a request.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

func setSpanHeaders(r *http.Request, parent *span, req int64) {
	if parent != nil {
		r.Header.Set(hdrSpan, strconv.FormatInt(parent.id(), 10))
		r.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	}
}

// tracedHandler wraps the service's handler in a server-side span that
// is a child of the client's request span.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		sp := tr.startID("service.Handler", parent, req)
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// jobRecorder is a slog.Handler for service.Config.Logger that collects
// the timestamps of every job the service executed, from its "job done"
// lines.
type jobRecorder struct {
	tr   *tracer          // jobs are recorded while it records spans
	svc  *service.Service // set before the first submission
	mu   sync.Mutex
	jobs []jobTiming
}

type jobTiming struct {
	key                          string
	submitted, started, finished time.Time
}

func (j *jobRecorder) Enabled(context.Context, slog.Level) bool { return true }
func (j *jobRecorder) WithAttrs([]slog.Attr) slog.Handler       { return j }
func (j *jobRecorder) WithGroup(string) slog.Handler            { return j }

func (j *jobRecorder) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "job done" || !j.tr.active() {
		return nil
	}
	var id string
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "job" {
			id = a.Value.String()
			return false
		}
		return true
	})
	job, ok := j.svc.Job(id)
	if !ok {
		return nil
	}
	<-job.Done() // closed before the line is logged; the fields are final
	j.mu.Lock()
	j.jobs = append(j.jobs, jobTiming{job.Key, job.Submitted, job.Started, job.Finished})
	j.mu.Unlock()
	return nil
}

// metrics derives the service stage timings from the traced epochs.
// http_ms is a request's client latency minus the run time of the job
// that served it (zero for a cache hit).
func (j *jobRecorder) metrics(samples []sample) []metric {
	j.mu.Lock()
	defer j.mu.Unlock()
	byKey := make(map[string][]jobTiming)
	var wait, run []time.Duration
	for _, jt := range j.jobs {
		byKey[jt.key] = append(byKey[jt.key], jt)
		wait = append(wait, jt.started.Sub(jt.submitted))
		run = append(run, jt.finished.Sub(jt.started))
	}
	var httpT []time.Duration
	for _, s := range samples {
		if !s.traced {
			continue
		}
		t := s.latency()
		if !s.hit {
			for _, jt := range byKey[s.key] {
				if !jt.finished.Before(s.start) && !jt.finished.After(s.end) {
					t -= jt.finished.Sub(jt.started)
					break
				}
			}
		}
		httpT = append(httpT, t)
	}
	return []metric{
		medianMS("service.queue_wait_ms_p50", wait),
		medianMS("service.job_ms_p50", run),
		medianMS("service.http_ms_p50", httpT),
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A tracer records spans around the benchmark's own calls into the
// layers under test. Spans stay in memory until the run ends. A nil
// *tracer records nothing, so the untraced runs pay one nil check per
// call site; a traced run switches its tracer off for the untraced
// units it interleaves with the traced ones (see tracedUnit).
//
// A span's name is "<layer>.<call>": its first dot-separated element is
// the layer its self time is charged to (sim, cell, workloads,
// prefetch, snap, harness, service, http, bench).
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Times are nanoseconds since the
// tracer started.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Req    int64  `json:"req"`    // spans of one request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is an open span; end closes it. A nil *span (from a nil tracer)
// ignores end.
type span struct {
	tr    *tracer
	rec   spanRec
	start time.Time
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

// setOn switches recording on or off; a nil tracer ignores it.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// active reports whether t records spans now.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// newReq returns a fresh request id (0 when not recording).
func (t *tracer) newReq() int64 {
	if !t.active() {
		return 0
	}
	return t.reqs.Add(1)
}

// start opens a span named name under parent (nil for a root span) in
// request req.
func (t *tracer) start(name string, parent *span, req int64) *span {
	var pid int64
	if parent != nil {
		pid = parent.rec.ID
	}
	return t.startID(name, pid, req)
}

// startID is start with the parent given by id, for spans whose parent
// lives in another goroutine (the HTTP server side of a request).
func (t *tracer) startID(name string, parent, req int64) *span {
	if !t.active() {
		return nil
	}
	now := time.Now()
	return &span{tr: t, start: now, rec: spanRec{
		ID: t.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(now.Sub(t.t0)),
	}}
}

// id returns the span's id (0 for a nil span).
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.End = s.rec.Start + int64(time.Since(s.start))
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s.rec)
	s.tr.mu.Unlock()
}

// count returns the number of finished spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of every finished span called name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// layerOf returns the layer a span name charges its self time to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the part of each span its child spans cover. Spans of
// concurrent requests overlap in wall time, so the sum over layers can
// exceed the run's wall time.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]spanRec)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		covered := coverage(s, children[s.ID])
		self[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// coverage returns how many nanoseconds of parent's interval the union
// of kids' intervals covers.
func coverage(parent spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			covered += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return covered + curE - curS
}

// write dumps every span to path as a Chrome trace-event document
// (open it in Perfetto or chrome://tracing): one track per request.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int64   `json:"tid"`
		Args spanRec `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, PID: 1, TID: s.Req, Args: s}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

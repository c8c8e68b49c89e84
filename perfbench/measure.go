package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with the count of samples behind it.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// medianMS is the median of ds in milliseconds, with its sample count.
func medianMS(name string, ds []time.Duration) metric {
	return metric{name, "ms", median(ms(ds)), len(ds)}
}

// kindQuantiles summarises per-operation latencies grouped by the kind
// of operation (a program point, an experiment, a request class): it
// takes each kind's median and returns the Harrell-Davis estimates of
// the q-quantiles of those medians, with the number of operations
// behind them. Every kind weighs the same however often it ran. The
// kinds' costs are far apart (a 30 ms run next to a 300 ms one), and a
// plain order statistic jumps whenever two kinds near the quantile
// swap places or one of them has a slow run; the Harrell-Davis
// estimate weighs every kind by how likely it is to be that quantile,
// so it moves smoothly with the kinds' medians.
func kindQuantiles(byKind map[string][]float64, qs ...float64) ([]float64, int) {
	var meds []float64
	n := 0
	for _, xs := range byKind {
		meds = append(meds, median(xs))
		n += len(xs)
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = hdQuantile(meds, q)
	}
	return out, n
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile of xs: the
// sorted values weighted by the Beta(q(n+1), (1-q)(n+1)) probability of
// each 1/n-wide slice of [0, 1], integrated numerically.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	const steps = 20000
	var sum, total float64
	for k := 0; k < steps; k++ {
		t := (float64(k) + 0.5) / steps
		w := math.Exp((a-1)*math.Log(t) + (b-1)*math.Log1p(-t))
		sum += w * s[min(int(t*float64(n)), n-1)]
		total += w
	}
	return sum / total
}

// tracedUnit reports whether unit i (a pass, a sweep, a client epoch)
// of a traced run records spans. Units pair up as (0,1), (2,3), ...;
// the traced unit comes second in even pairs and first in odd ones, so
// a steady drift of host speed cancels out over pairs.
func tracedUnit(i int) bool { return i%4 == 1 || i%4 == 2 }

// overheadPct compares the units of a traced run pair by pair. cost[i]
// is unit i's host time per unit of work; the result is the median and
// the interquartile range over complete pairs of the traced unit's
// extra cost in percent, and the number of pairs.
func overheadPct(cost []float64) (med, iqr float64, pairs int) {
	var pct []float64
	for i := 0; i+1 < len(cost); i += 2 {
		u, t := cost[i], cost[i+1]
		if tracedUnit(i) {
			u, t = t, u
		}
		pct = append(pct, 100*ratio(t-u, u))
	}
	return median(pct), quantile(pct, 0.75) - quantile(pct, 0.25), len(pct)
}

// another reports whether a window that opened at start should begin
// another unit of work, given the durations in seconds of the units
// done: it stops when the next unit would likely end more than half a
// unit past the window, so runs overshoot their window by little.
func another(start time.Time, window time.Duration, done []float64) bool {
	return len(done) == 0 || time.Since(start).Seconds()+median(done)/2 < window.Seconds()
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostFingerprint describes the machine a result was measured on.
func hostFingerprint() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s os=%s/%s", model,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// dist collects samples of one quantity and summarises them as a median
// and the highest percentile the sample supports.
type dist struct{ xs []float64 }

func (d *dist) add(x float64) { d.xs = append(d.xs, x) }

func (d *dist) n() int { return len(d.xs) }

func (d *dist) sorted() []float64 {
	s := append([]float64(nil), d.xs...)
	sort.Float64s(s)
	return s
}

func (d *dist) p50() float64 { return quantile(d.sorted(), 0.5) }

func (d *dist) mean() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range d.xs {
		sum += x
	}
	return sum / float64(len(d.xs))
}

// tail returns the value at the highest percentile up to p99 that leaves
// at least ten samples beyond it, and that percentile. With fewer than
// twenty samples no such percentile exists and the maximum is returned
// with q = 1.
func (d *dist) tail() (v, q float64) {
	s := d.sorted()
	n := float64(len(s))
	if n == 0 {
		return 0, 0
	}
	q = math.Min(0.99, 1-10/n)
	if q < 0.5 {
		return s[len(s)-1], 1
	}
	return quantile(s, q), q
}

// windowTail splits the samples, in arrival order, into windows of w and
// returns the median of the windows' tails: a tail figure that one burst
// of host noise moves by one window, not by the whole run. With fewer
// than w samples it is the plain tail.
func (d *dist) windowTail(w int) float64 {
	return median(d.windowTails(w))
}

// windowTails returns the tail of each window of w samples (or of all
// samples, when there are fewer than w).
func (d *dist) windowTails(w int) []float64 {
	if len(d.xs) < w {
		v, _ := d.tail()
		return []float64{v}
	}
	var tails []float64
	for lo := 0; lo+w <= len(d.xs); lo += w {
		win := dist{xs: d.xs[lo : lo+w]}
		v, _ := win.tail()
		tails = append(tails, v)
	}
	return tails
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeSample reads the Go runtime's cumulative GC CPU and allocation
// counters; two samples bracket a measured section.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

func readRuntime() runtimeSample {
	ms := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ms)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(ms[0]), totalCPU: val(ms[1]), allocBytes: val(ms[2])}
}

// runtimeDelta returns the GC share of the runtime's CPU time and the
// bytes allocated per operation between two samples.
func runtimeDelta(a, b runtimeSample, ops int64) (gcFraction, allocPerOp float64) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		gcFraction = (b.gcCPU - a.gcCPU) / cpu
	}
	if ops > 0 {
		allocPerOp = (b.allocBytes - a.allocBytes) / float64(ops)
	}
	return gcFraction, allocPerOp
}

// sleepUntil waits for the deadline with a kernel sleep: the Go runtime's
// timers round sub-millisecond waits up to a millisecond when the
// scheduler parks in the network poller, which would make the open-loop
// schedule coarser than the latencies it measures.
func sleepUntil(deadline time.Time) {
	for {
		d := time.Until(deadline)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
			return
		}
	}
}

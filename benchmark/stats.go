package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method) — the
// spread the driver computes over runs, here computed over rounds. Fewer
// than two values have no spread.
func quartileSpread(xs []float64) float64 {
	m := len(xs)
	if m < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	spread := (quart(3) - quart(1)) / med
	if spread < 0 {
		return -spread
	}
	return spread
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in KiB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// meter takes wall, CPU and allocator deltas over timed segments and keeps
// the allocator's totals. Everything between end and the next begin — cache
// drops, result checks, forced GCs — stays off every clock.
type meter struct {
	mallocs uint64
	gcs     uint32
	pauseNS uint64

	t0 time.Time
	c0 time.Duration
	m0 runtime.MemStats
}

func (m *meter) begin() {
	runtime.ReadMemStats(&m.m0)
	m.c0 = cpuTime()
	m.t0 = time.Now()
}

// segment is one timed stretch as end reports it.
type segment struct {
	wall, cpu time.Duration
	allocB    uint64
}

// end closes the segment and returns it.
func (m *meter) end() segment {
	seg := segment{wall: time.Since(m.t0), cpu: cpuTime() - m.c0}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	seg.allocB = m1.TotalAlloc - m.m0.TotalAlloc
	m.mallocs += m1.Mallocs - m.m0.Mallocs
	m.gcs += m1.NumGC - m.m0.NumGC
	m.pauseNS += m1.PauseTotalNs - m.m0.PauseTotalNs
	return seg
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

package main

// measure.go reads the process-wide counters a window is judged by —
// getrusage CPU time and the Go runtime's allocation, GC and scheduler
// metrics — and holds the small statistics helpers.

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// procSample is one reading of the process-wide counters.
type procSample struct {
	user, sys   time.Duration
	allocs      uint64
	allocBytes  uint64
	gcCPU       float64 // seconds
	schedCounts []uint64
	schedBounds []float64 // seconds; len(schedCounts)+1
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

// cpuTimes returns the process's user and system CPU time.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // RUSAGE_SELF cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

func sampleProc() procSample {
	var s procSample
	s.user, s.sys = cpuTimes()
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ms[i].Name = name
	}
	metrics.Read(ms)
	s.allocs = ms[0].Value.Uint64() + ms[1].Value.Uint64()
	s.allocBytes = ms[2].Value.Uint64()
	s.gcCPU = ms[3].Value.Float64()
	h := ms[4].Value.Float64Histogram()
	s.schedCounts = append([]uint64(nil), h.Counts...)
	s.schedBounds = h.Buckets
	return s
}

// procDelta is what happened between two samples.
type procDelta struct {
	cpu, sys          time.Duration
	allocs, allocByte uint64
	gcCPU             float64
	schedP99          float64 // seconds
}

func diffProc(a, b procSample) procDelta {
	d := procDelta{
		cpu:       (b.user - a.user) + (b.sys - a.sys),
		sys:       b.sys - a.sys,
		allocs:    b.allocs - a.allocs,
		allocByte: b.allocBytes - a.allocBytes,
		gcCPU:     b.gcCPU - a.gcCPU,
	}
	counts := make([]uint64, len(b.schedCounts))
	var total uint64
	for i := range counts {
		counts[i] = b.schedCounts[i] - a.schedCounts[i]
		total += counts[i]
	}
	if total > 0 {
		// The p99 is reported as the upper edge of the bucket holding it
		// (its lower edge when the upper one is unbounded).
		need := uint64(math.Ceil(0.99 * float64(total)))
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= need {
				d.schedP99 = b.schedBounds[i+1]
				if math.IsInf(d.schedP99, 1) {
					d.schedP99 = b.schedBounds[i]
				}
				break
			}
		}
	}
	return d
}

// quantile returns the q-quantile of xs (nearest rank); xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// tailLadder is the set of percentiles latency_ms_tail may report, in
// tenths of a percent, highest first. The tail is the highest of them
// with at least tailMinBeyond samples above it, so a handful of outliers
// never stands for a tail.
var tailLadder = []int{999, 990, 950, 900, 750}

const tailMinBeyond = 10

// rank is the 1-based nearest rank of the permille-th percentile of n
// samples, in integer arithmetic so 99.9% of 10000 is exactly 9990.
func rank(n, permille int) int {
	return max((permille*n+999)/1000, 1)
}

// percentile returns the nearest-rank percentile of sorted values.
func percentile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(rank(len(sorted), permille), len(sorted))-1]
}

// tail picks the highest ladder percentile with at least tailMinBeyond
// samples beyond it. ok is false when no percentile qualifies.
func tail(sorted []float64) (value float64, permille, beyond int, ok bool) {
	n := len(sorted)
	for _, p := range tailLadder {
		if b := n - rank(n, p); b >= tailMinBeyond {
			return percentile(sorted, p), p, b, true
		}
	}
	return 0, 0, 0, false
}

// runTail is latency_ms_tail over a run's chunks. The percentile is the
// one tail picks over all of the run's samples; its value is the median,
// over consecutive groups of chunks, of each group's own percentile, where
// a group is the fewest chunks whose samples also have tailMinBeyond
// beyond it (a short last group joins the one before). Like the medians
// over passes, this keeps a burst of noise in one part of the run from
// setting the whole run's tail. groups is 0 when no percentile qualifies.
func runTail(chunks [][]float64) (value float64, permille, n, groups int) {
	var all []float64
	for _, c := range chunks {
		all = append(all, c...)
	}
	_, p, _, ok := tail(sortedCopy(all))
	if !ok {
		return 0, 0, len(all), 0
	}
	// Cut the run into groups, each closed as soon as it qualifies.
	var cuts [][]float64
	var group []float64
	for _, c := range chunks {
		group = append(group, c...)
		if len(group)-rank(len(group), p) >= tailMinBeyond {
			cuts = append(cuts, group)
			group = nil
		}
	}
	if len(group) > 0 {
		cuts[len(cuts)-1] = append(cuts[len(cuts)-1], group...)
	}
	vals := make([]float64, len(cuts))
	for i, g := range cuts {
		vals[i] = percentile(sortedCopy(g), p)
	}
	return median(vals), p, len(all), len(vals)
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(sum float64, n int) float64 { return ratio(sum, float64(n)) }

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPUTime is the CPU time the calling OS thread has used so far.
// runSearches locks its goroutine to its thread, and a search runs wholly
// on the calling goroutine, so the difference over a search is the
// search's own CPU time: its code, its allocations and the collection
// work charged to them, but neither the background collector on the
// other CPU, nor time spent waiting for a CPU, nor time in which the
// hypervisor ran other guests on it.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// memSnap is the allocation counters at one instant.
type memSnap struct {
	mallocs uint64
	bytes   uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// cpuSnap samples the runtime's CPU accounting: GC CPU and total CPU
// seconds, as runtime/metrics estimates them.
type cpuSnap struct{ gc, total float64 }

func readCPU() cpuSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c cpuSnap
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// gcFrac is the share of CPU time spent in the garbage collector between
// two samples.
func gcFrac(a, b cpuSnap) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.gc - a.gc) / (b.total - a.total)
}

package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile returns the highest percentile of tailLevels that has at
// least ten of n samples beyond it, and false when n is too small for any.
// Reporting a higher percentile than the sample supports would report one
// or two outliers as if they were a distribution's tail.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLevels {
		if n-nearestRank(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the p-th percentile of sorted by the nearest-rank
// method, 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// dist is a sorted sample of one timing.
type dist []float64

// newDist sorts a copy of the samples.
func newDist(samples []float64) dist {
	d := append(dist(nil), samples...)
	sort.Float64s(d)
	return d
}

func (d dist) p50() float64         { return percentile(d, 50) }
func (d dist) at(p float64) float64 { return percentile(d, p) }
func (d dist) n() int               { return len(d) }
func (d dist) tail() (float64, float64, bool) {
	p, ok := tailPercentile(len(d))
	if !ok {
		return 0, 0, false
	}
	return p, d.at(p), true
}

// median returns the median of xs (the mean of the middle two for an even
// count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// selfPerOp is a layer's self time per call, computed from aggregate busy
// time: the layer's total busy time minus the busy time of the layers it
// calls, divided by the layer's call count. Spans cannot be matched to their
// parents across the wire hop, so per-request subtraction is not available;
// the aggregates still give each layer's share exactly when every child call
// happens inside a parent call. It returns 0 for no calls.
func selfPerOp(total time.Duration, calls int64, children ...time.Duration) time.Duration {
	if calls <= 0 {
		return 0
	}
	self := total
	for _, c := range children {
		self -= c
	}
	return self / time.Duration(calls)
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime returns the CPU time (user plus system) the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// mark is one reading of the process CPU clock and of the host's CPU
// counters.
type mark struct {
	cpu time.Duration
	// steal and busy are the machine's CPU time stolen by the hypervisor
	// and wanted by its processors (stolen included), in ticks since boot.
	steal, busy uint64
}

func takeMark() mark {
	m := mark{cpu: cpuTime()}
	m.steal, m.busy = hostTicks()
	return m
}

// hostTicks reads the machine's stolen and wanted CPU time from the first
// line of /proc/stat (cpu user nice system idle iowait irq softirq steal
// ...): wanted is every field but idle and iowait. It returns zeros where
// the file is unavailable.
func hostTicks() (steal, busy uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		if i != 4 && i != 5 {
			busy += v
		}
		if i == 8 {
			steal = v
		}
	}
	return steal, busy
}

package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// opClass groups operations for latency reporting.
type opClass int

const (
	classGet opClass = iota
	classPut         // Create, AddLocation and Put
)

// windowSpan is the length of the windows a phase is cut into. Metrics
// are taken per window and reported as the median over the calm windows
// (see calmest). The hypervisor steals CPU time in bursts of a few
// milliseconds to a few hundred, so short windows let a contended run
// still find stretches it had to itself.
const windowSpan = 100 * time.Millisecond

// minWindowOps is the fewest operations a window holds.
const minWindowOps = 20

// minGroupOps is the fewest operations in the groups of windows a
// rate-search step is judged in, so each group's p99 has ten samples
// beyond it.
const minGroupOps = 1000

// sample is one latency measurement of operation op.
type sample struct {
	op    int
	class opClass
	ms    float64
}

// phaseResult is what one open-loop phase measured. Every latency is timed
// from when the operation was due, not from when it was sent, so a stall in
// the generator or the system counts against every operation it delayed.
type phaseResult struct {
	offered  float64 // ops/s
	ops      int
	failed   int
	elapsed  time.Duration // first due time to last completion
	samples  []sample
	opLat    []float64 // ms from due to completion, by operation
	late     []float64 // ms from due to dispatch, by operation
	cpu      time.Duration
	firstErr error
	// size is the operations per window; marks[k] is taken when window
	// k's first operation is dispatched, with one after the last
	// completion appended.
	size  int
	marks []mark
	// completed reports that every operation finished within drainLimit
	// of the last due time.
	completed bool
}

// achieved is the completion rate: operations per second from the first due
// time to the last completion.
func (r phaseResult) achieved() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.ops) / r.elapsed.Seconds()
}

// valid reports whether the phase delivered what it offered: every
// operation completed and completions kept up with at least 95% of the
// offered rate. A fixed-rate phase that fails this measured a backlog, not
// the offered load.
func (r phaseResult) valid() error {
	if !r.completed {
		return fmt.Errorf("offered %.0f ops/s: operations still outstanding %v after the last was due", r.offered, drainLimit)
	}
	if a := r.achieved(); a < 0.95*r.offered {
		return fmt.Errorf("offered %.0f ops/s but completed only %.0f ops/s", r.offered, a)
	}
	return nil
}

// windows returns the number of windows; a short tail belongs to the
// window before it.
func (r phaseResult) windows() int {
	if w := r.ops / r.size; w > 0 {
		return w
	}
	return 1
}

// window returns the window operation i belongs to.
func (r phaseResult) window(i int) int {
	if w := i / r.size; w < r.windows() {
		return w
	}
	return r.windows() - 1
}

// dist returns every sample of class c.
func (r phaseResult) dist(c opClass) dist {
	var xs []float64
	for _, s := range r.samples {
		if s.class == c {
			xs = append(xs, s.ms)
		}
	}
	return newDist(xs)
}

// calm returns the windows whose share of stolen CPU time is at most the
// median window's.
func (r phaseResult) calm() []int {
	steal := make([]float64, r.windows())
	for w := range steal {
		steal[w] = stealShare(r.marks[w], r.marks[w+1])
	}
	return calmest(steal)
}

// windowP50 is the median over the calm windows of each window's median
// latency of class c.
func (r phaseResult) windowP50(c opClass) float64 {
	per := make([][]float64, r.windows())
	for _, s := range r.samples {
		if s.class == c {
			w := r.window(s.op)
			per[w] = append(per[w], s.ms)
		}
	}
	var p50s []float64
	for _, w := range r.calm() {
		if len(per[w]) > 0 {
			p50s = append(p50s, newDist(per[w]).p50())
		}
	}
	return median(p50s)
}

// windowCPUPerOp is the median over the calm windows of the process CPU
// time per operation, in microseconds.
func (r phaseResult) windowCPUPerOp() float64 {
	var xs []float64
	for _, w := range r.calm() {
		lo, hi := w*r.size, (w+1)*r.size
		if w == r.windows()-1 {
			hi = r.ops
		}
		xs = append(xs, us(r.marks[w+1].cpu-r.marks[w].cpu)/float64(hi-lo))
	}
	return median(xs)
}

// stealShare is the share of the CPU time the machine's processors wanted
// between a and b that the hypervisor stole.
func stealShare(a, b mark) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.busy-a.busy))
}

// unstolen is how long d, which began at a and ended at b, would have
// lasted had the hypervisor stolen none of the CPU time the machine wanted.
func unstolen(d time.Duration, a, b mark) time.Duration {
	return time.Duration(float64(d) * (1 - stealShare(a, b)))
}

// calmShare is the share of windows (or executions) calmest keeps when the
// host was stealing CPU time.
const calmShare = 10

// calmest returns the indexes of the least disturbed calmShare percent of
// steal, the shares of CPU time stolen in each window (or execution),
// together with every index whose share is within the noise floor: in a
// run nothing disturbed, that is every index.
func calmest(steal []float64) []int {
	const noiseFloor = 0.01
	cut := math.Max(percentile(newDist(steal), calmShare), noiseFloor)
	var out []int
	for i, s := range steal {
		if s <= cut {
			out = append(out, i)
		}
	}
	return out
}

// recorder collects the latency samples of one phase; an operation may
// record several (a write-then-read records its write and its read).
type recorder struct {
	mu      sync.Mutex
	samples []sample
}

// add records a sample of class c for operation i that started at since.
func (r *recorder) add(i int, c opClass, since time.Time) {
	d := ms(time.Since(since))
	r.mu.Lock()
	r.samples = append(r.samples, sample{op: i, class: c, ms: d})
	r.mu.Unlock()
}

// exec runs operation i of a phase, which was due at due, and records its
// latency samples on rec.
type exec func(ctx context.Context, i int, due time.Time, rec *recorder) error

// drainLimit bounds how long a phase waits for its operations after the
// last one was due; it is also each operation's deadline.
const drainLimit = 10 * time.Second

// runOpenLoop offers n operations at a fixed rate: operation i is due at
// start + i/rate and is dispatched on its own goroutine at (or, when the
// generator runs late, as soon as possible after) its due time, whether or
// not earlier operations have completed.
func runOpenLoop(ctx context.Context, rate float64, n int, do exec) phaseResult {
	res := phaseResult{offered: rate, ops: n, late: make([]float64, n), opLat: make([]float64, n)}
	res.size = int(rate * windowSpan.Seconds())
	if res.size < minWindowOps {
		res.size = minWindowOps
	}
	rec := &recorder{}
	finishedAt := make([]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	// The dispatcher keeps its own thread and waits in nanosleep with the
	// thread's timer slack cut from the default 50 us to 1 ns, so it
	// wakes within about 15 us of the due time; a Go timer rounds a
	// sub-millisecond wait up to the next millisecond and would add that
	// rounding to every latency timed from the due time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack(1)
	defer setTimerSlack(0) // 0 restores the default
	cpu0 := cpuTime()
	start := time.Now()
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		sleepUntil(due)
		if i%res.size == 0 && i/res.size < res.windows() {
			res.marks = append(res.marks, takeMark())
		}
		res.late[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			octx, cancel := context.WithDeadline(newRequest(ctx), due.Add(drainLimit))
			errs[i] = do(octx, i, due, rec)
			cancel()
			finishedAt[i] = time.Since(start)
		}(i, due)
	}
	lastDue := start.Add(time.Duration(float64(n-1) * interval))
	wg.Wait()
	end := takeMark()
	res.marks = append(res.marks, end)
	res.cpu = end.cpu - cpu0
	res.completed = true
	for i, at := range finishedAt {
		res.opLat[i] = ms(at - time.Duration(float64(i)*interval))
		if at > res.elapsed {
			res.elapsed = at
		}
		if start.Add(at).After(lastDue.Add(drainLimit)) {
			res.completed = false
		}
		if errs[i] != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = errs[i]
			}
		}
	}
	res.samples = rec.samples
	return res
}

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an interrupted sleep just loops
	}
}

// setTimerSlack sets how late the kernel may wake the calling thread's
// sleeps (PR_SET_TIMERSLACK); it is a hint, so a refusal is ignored.
func setTimerSlack(ns uintptr) {
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0) //nolint:errcheck // a hint: without it sleeps wake up to 50 us later
}

// passes reports whether a phase meets the latency limit at its offered
// rate: no operation failed, no backlog was left (valid), and in most
// groups of consecutive windows holding minGroupOps operations the p99 of
// operation latency from the due time is within limitMS. Judging by the
// majority of groups keeps one background stall (a log compaction, a GC
// cycle) from deciding the verdict alone; a rate the system cannot sustain
// fails every group, as its queue only grows.
func (r phaseResult) passes(limitMS float64) bool {
	if r.failed > 0 || r.valid() != nil {
		return false
	}
	group := (minGroupOps + r.size - 1) / r.size
	groups := r.windows() / group
	if groups < 1 {
		groups = 1
	}
	per := make([][]float64, groups)
	for i, l := range r.opLat {
		g := r.window(i) / group
		if g >= groups {
			g = groups - 1
		}
		per[g] = append(per[g], l)
	}
	good := 0
	for _, xs := range per {
		if newDist(xs).at(99) <= limitMS {
			good++
		}
	}
	return good*2 > len(per)
}

// rateSearch finds the highest offered rate that passes. It starts from a
// rate already measured (passed tells whether it passed), moves by factors
// of growth until the outcome flips, then bisects between the highest pass
// and the lowest failure until they are within 5% of each other or the
// budget is spent. Each step offers rate×step operations taken from next.
// It returns the highest passing rate (0 if none passed) and every step.
func rateSearch(ctx context.Context, start float64, passed bool, limitMS float64, step, budget time.Duration, next func(n int) exec) (float64, []phaseResult) {
	const growth = 1.5
	lo, hi := 0.0, 0.0
	if passed {
		lo = start
	} else {
		hi = start
	}
	var steps []phaseResult
	began := time.Now()
	for time.Since(began) < budget {
		var rate float64
		switch {
		case hi == 0:
			rate = lo * growth
		case lo == 0:
			rate = hi / growth
		case hi/lo < 1.05:
			return lo, steps
		default:
			rate = (lo + hi) / 2
		}
		n := int(rate * step.Seconds())
		r := runOpenLoop(ctx, rate, n, next(n))
		steps = append(steps, r)
		if r.passes(limitMS) {
			lo = rate
		} else {
			hi = rate
		}
		// Let the queues of a failed step drain before the next one.
		time.Sleep(100 * time.Millisecond)
	}
	return lo, steps
}

// closedResult is what one closed-loop phase measured.
type closedResult struct {
	ops, failed int
	elapsed     time.Duration
	firstErr    error
	// perWindow counts the operations completed in each windowSpan;
	// marks[k] is taken when window k begins, with one at its end.
	perWindow []int
	marks     []mark
}

// throughput is the median over windows of the operations completed per
// second the hypervisor did not steal: a window that lost a share s of the
// CPU time the machine wanted completed about (1-s) of what the program
// can. Unlike the open-loop phases it keeps every window: a window that
// waited on the disk wanted little CPU and so lost little, and picking
// the least-stolen windows would pick the stalled ones.
func (r closedResult) throughput() float64 {
	var xs []float64
	for k, n := range r.perWindow {
		xs = append(xs, float64(n)/(windowSpan.Seconds()*(1-stealShare(r.marks[k], r.marks[k+1]))))
	}
	return median(xs)
}

// rawThroughput is the operations completed per second over the phase,
// stolen time included.
func (r closedResult) rawThroughput() float64 {
	return float64(r.ops-r.failed) / r.elapsed.Seconds()
}

// runClosedLoop keeps workers callers busy for dur: each issues the next
// operation of do as soon as its previous one returned, so the system is
// offered exactly what it can complete and no backlog can grow. At most n
// operations are issued.
func runClosedLoop(ctx context.Context, workers int, dur time.Duration, n int, do exec) closedResult {
	var (
		mu   sync.Mutex
		next int
		res  closedResult
		wg   sync.WaitGroup
	)
	res.perWindow = make([]int, int(dur/windowSpan))
	rec := &recorder{}
	start := time.Now()
	stop := start.Add(dur)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k <= len(res.perWindow); k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * windowSpan)))
			res.marks = append(res.marks, takeMark())
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				octx, cancel := context.WithTimeout(newRequest(ctx), drainLimit)
				err := do(octx, i, time.Now(), rec)
				cancel()
				k := int(time.Since(start) / windowSpan)
				mu.Lock()
				res.ops++
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				} else if k < len(res.perWindow) {
					res.perWindow[k]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

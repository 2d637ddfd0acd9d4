package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"geomds/internal/metrics"
	"geomds/internal/rpc"
)

// wireSetups is how many times an untraced wire run sets the tier up; it
// reports the median. The last set-up is the one measured.
const wireSetups = 3

// warmUpOps are issued closed-loop by warmUpWorkers before measuring, so
// connections are open, codec type caches are built and the near cache
// holds its hot set.
const (
	warmUpOps     = 4000
	warmUpWorkers = 8
)

// wireEnv is one set-up tier with its client and load.
type wireEnv struct {
	dir  string
	srv  *wireServer
	cl   *wireClient
	load wireLoad
}

// setUpWire starts a tier under dir, preloads it, connects the client and
// warms up.
func setUpWire(ctx context.Context, dir string, load wireLoad, t *Tracer) (*wireEnv, error) {
	env := &wireEnv{dir: dir, load: load}
	var err error
	if env.srv, err = startWireServer(dir, t); err != nil {
		return nil, err
	}
	if err := load.preload(ctx, env.srv); err != nil {
		env.close()
		return nil, err
	}
	if env.cl, err = dialWire(ctx, env.srv.addr, t); err != nil {
		env.close()
		return nil, err
	}
	load.connect(ctx, env.cl, t)
	do := load.take(warmUpOps)
	var wg sync.WaitGroup
	errs := make([]error, warmUpWorkers)
	for w := 0; w < warmUpWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := &recorder{}
			for i := w; i < warmUpOps; i += warmUpWorkers {
				if err := do(ctx, i, time.Now(), rec); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return env, nil
}

// close tears the client and the tier down; it keeps the data directory.
func (e *wireEnv) close() error {
	if e.cl != nil {
		e.cl.Close()
		e.cl = nil
	}
	if e.srv != nil {
		return e.srv.Close()
	}
	return nil
}

// runWire runs one wire workload and its correctness checks. Untraced, it
// sets up wireSetups times and runs the phases of measureWire. Traced, it
// sets up once and offers the fixed rate twice, untraced then traced, for
// the per-layer breakdown and the tracing overhead.
func runWire(ctx context.Context, o options, newLoad func(seed int64) wireLoad) (*results, error) {
	var t *Tracer
	setups := wireSetups
	if o.trace {
		t = NewTracer()
		setups = 1
	}
	r := newResults()
	var env *wireEnv
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		dir := filepath.Join(o.tmp, fmt.Sprintf("setup-%d", k))
		start, m0 := time.Now(), takeMark()
		e, err := setUpWire(ctx, dir, newLoad(o.seed), t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, unstolen(time.Since(start), m0, takeMark()).Seconds())
		if k < setups-1 {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", k, err)
			}
			os.RemoveAll(dir) //nolint:errcheck // the whole scratch tree is removed at exit too
			// Collect the torn-down tier before the next set-up, so the
			// peak resident memory does not depend on when the collector
			// happened to run between the two.
			runtime.GC()
			continue
		}
		env = e
	}
	defer env.close() //nolint:errcheck // the checks close it on the success path
	r.set("setup_s", median(setupTimes))

	var err error
	if o.trace {
		err = measureTraced(ctx, o, env, t, r)
	} else {
		err = measureWire(ctx, o, env, r)
	}
	if err != nil {
		return r, err
	}
	if err := env.load.verify(ctx, env.srv, env.cl); err != nil {
		return r, err
	}
	if err := env.close(); err != nil {
		return r, fmt.Errorf("closing the tier: %w", err)
	}
	if err := env.load.verifyDurable(ctx, env.srv.dirs); err != nil {
		return r, err
	}
	if t != nil {
		if err := t.WriteSpans(o, r); err != nil {
			return r, err
		}
	}
	return r, nil
}

// fixedPhaseOps is how many operations a fixed-rate phase offers at rate
// when it gets share of the run.
func fixedPhaseOps(o options, rate, share float64) int {
	return int(rate * o.seconds.Seconds() * share)
}

// Shares of an untraced wire run: the fixed-rate phase, the search for
// the highest rate within the latency limit, and the closed-loop phase
// that measures throughput.
const (
	fixedShare  = 0.55
	searchShare = 0.2
	closedShare = 0.25
	// closedWorkers is how many callers the closed-loop phase keeps busy:
	// enough to saturate the tier through the client's two connections.
	closedWorkers = 64
	// closedMaxRate caps the operations drawn for the closed-loop phase.
	closedMaxRate = 20_000
)

// measureWire runs the untraced phases: the fixed rate, the rate search
// (reported, not gated: its verdicts hinge on whether a background stall
// falls in a window, so it spreads too widely between runs to bound), and
// the closed loop. The closed loop goes last because the operations it
// draws but never issues would leave names other phases could pick.
func measureWire(ctx context.Context, o options, env *wireEnv, r *results) error {
	rate := env.load.rate()
	n := fixedPhaseOps(o, rate, fixedShare)
	// Each measured phase starts from a collected heap, so garbage of the
	// set-ups or of an earlier phase is not collected on its time.
	runtime.GC()
	fixed := runOpenLoop(ctx, rate, n, env.load.take(n))
	r.attempted += fixed.ops
	r.failed += fixed.failed
	if fixed.failed > 0 {
		return fmt.Errorf("fixed-rate phase: %d of %d operations failed, first: %w", fixed.failed, fixed.ops, fixed.firstErr)
	}
	if err := fixed.valid(); err != nil {
		return fmt.Errorf("fixed-rate phase invalid: %w", err)
	}
	reportPhase(r, fixed)
	// Peak memory is taken before the overload phases: they queue
	// operations a user at a sustainable rate never sees.
	r.set("rss_peak_mb", peakRSSMB())

	budget := time.Duration(float64(o.seconds) * searchShare)
	maxRate, steps := rateSearch(ctx, rate, fixed.passes(p99LimitMS), p99LimitMS, searchStep, budget, env.load.take)
	for _, s := range steps {
		r.attempted += s.ops
		r.failed += s.failed
		verdict := "fail"
		if s.passes(p99LimitMS) {
			verdict = "pass"
		}
		r.note("rate step %6.0f ops/s: %s (p99 %.2f ms, completed %.0f ops/s, %d failed)", s.offered, verdict, newDist(s.opLat).at(99), s.achieved(), s.failed)
	}
	r.note("max_rate_ops_s %.1f 1/s: highest offered rate with p99 <= %.0f ms in most runs of %d operations and no backlog (not gated)", maxRate, p99LimitMS, minGroupOps)

	dur := time.Duration(float64(o.seconds) * closedShare)
	n = int(closedMaxRate * dur.Seconds())
	runtime.GC()
	closed := runClosedLoop(ctx, closedWorkers, dur, n, env.load.take(n))
	r.attempted += closed.ops
	r.failed += closed.failed
	if closed.failed > 0 {
		return fmt.Errorf("closed-loop phase: %d of %d operations failed, first: %w", closed.failed, closed.ops, closed.firstErr)
	}
	r.set("throughput_ops_s", closed.throughput())
	r.note("closed loop: %d callers, %.0f ops/s over the phase with stolen time included, %.1f%% of the host's CPU time stolen",
		closedWorkers, closed.rawThroughput(), 100*stealShare(closed.marks[0], closed.marks[len(closed.marks)-1]))
	return nil
}

// reportPhase sets the end-to-end metrics of a fixed-rate phase.
func reportPhase(r *results, p phaseResult) {
	get, put := p.dist(classGet), p.dist(classPut)
	r.set("get_p50_ms", p.windowP50(classGet))
	r.set("put_p50_ms", p.windowP50(classPut))
	r.set("cpu_us_per_op", p.windowCPUPerOp())
	for _, c := range []struct {
		name string
		d    dist
	}{{"get", get}, {"put", put}} {
		if pct, v, ok := c.d.tail(); ok {
			r.note("%s tail: p%g %.3f ms (n=%d)", c.name, pct, v, c.d.n())
		}
	}
	late := newDist(p.late)
	r.note("fixed phase: offered %.0f ops/s, completed %.0f ops/s, generator late p99 %.3f ms, %.1f%% of the host's CPU time stolen, %d of %d windows calm",
		p.offered, p.achieved(), late.at(99), 100*stealShare(p.marks[0], p.marks[len(p.marks)-1]), len(p.calm()), p.windows())
}

// measureTraced offers the fixed rate untraced, then traced, and derives
// the per-layer metrics from the traced phase.
func measureTraced(ctx context.Context, o options, env *wireEnv, t *Tracer, r *results) error {
	rate := env.load.rate()
	n := fixedPhaseOps(o, rate, 0.35)
	runtime.GC()
	base := runOpenLoop(ctx, rate, n, env.load.take(n))
	r.attempted += base.ops
	r.failed += base.failed

	// The benchmark's own watch measures feed delivery: event arrival
	// minus the commit time the server stamped (same process, same clock).
	var (
		deliveryMu sync.Mutex
		delivery   []float64
	)
	watch, err := env.cl.client.Watch(ctx, env.srv.router.ChangeFeed().Seq(), rpc.WatchOptions{})
	if err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for ev := range watch.Events() {
			d := ms(time.Duration(time.Now().UnixNano() - ev.Commit))
			deliveryMu.Lock()
			delivery = append(delivery, d)
			deliveryMu.Unlock()
		}
	}()

	runtime.GC()
	srvSnap := env.srv.reg.Snapshot()
	cliSnap := env.cl.reg.Snapshot()
	reqs0, aband0 := env.srv.srv.Requests(), env.srv.srv.Abandoned()
	log0 := env.srv.logStats()
	cas0, conflicts0 := sumCAS(env.srv.caches)
	writes0 := env.load.writes()
	var cacheStats0 cacheCounters
	if env.cl.cache != nil {
		cacheStats0 = readCacheCounters(env.cl)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	t.Enable(true)
	traced := runOpenLoop(ctx, rate, n, env.load.take(n))
	t.Enable(false)

	runtime.ReadMemStats(&ms1)
	// Let the feed catch up with the phase's last writes before closing
	// the watch.
	time.Sleep(100 * time.Millisecond)
	watch.Close()
	<-watchDone
	r.attempted += traced.ops
	r.failed += traced.failed
	if traced.failed > 0 || base.failed > 0 {
		return fmt.Errorf("traced run: operations failed, first: %v %v", base.firstErr, traced.firstErr)
	}

	ops := float64(traced.ops)
	srvDelta := counterDelta(srvSnap, env.srv.reg.Snapshot())
	cliDelta := counterDelta(cliSnap, env.cl.reg.Snapshot())

	// rpc
	cliGet := t.Layer("rpc.client.Get")
	cliPut := t.Layer("rpc.client.Create", "rpc.client.AddLocation", "rpc.client.Put")
	cliAll := t.LayerPrefix("rpc.client.")
	router := t.LayerPrefix("registry.router.")
	inst := t.LayerPrefix("registry.instance.")
	mc := t.LayerPrefix("memcache.")
	r.set("rpc.call_get_p50_us", cliGet.Durs.p50())
	r.set("rpc.call_put_p50_us", cliPut.Durs.p50())
	r.set("rpc.self_us_per_op", us(selfPerOp(cliAll.Busy, cliAll.Calls, router.Busy)))
	r.set("rpc.get_p99_ms", cliGet.Durs.at(99)/1e3)
	r.set("rpc.put_p99_ms", cliPut.Durs.at(99)/1e3)
	r.set("rpc.server_requests", float64(env.srv.srv.Requests()-reqs0))
	r.set("rpc.server_abandoned", float64(env.srv.srv.Abandoned()-aband0))
	r.set("go.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/ops)
	r.set("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	r.set("gen.late_p99_ms", newDist(traced.late).at(99))
	// limits
	r.set("limits.admitted", float64(srvDelta["limits_admitted_total"]))
	r.set("limits.rejected", float64(srvDelta["limits_rejected_total"]))
	// registry
	routerGets := t.Layer("registry.router.Get")
	r.set("registry.router_self_us_per_op", us(selfPerOp(router.Busy, router.Calls, inst.Busy)))
	r.set("registry.instance_self_us_per_op", us(selfPerOp(inst.Busy, inst.Calls, mc.Busy)))
	hedged := float64(srvDelta["router_hedged_reads_total"])
	r.set("registry.hedged_read_ratio", ratio(hedged, float64(routerGets.Calls)))
	r.set("registry.hedge_win_ratio", ratio(float64(srvDelta["router_hedge_wins_total"]), hedged))
	cas1, conflicts1 := sumCAS(env.srv.caches)
	r.set("registry.cas_conflict_ratio", ratio(float64(conflicts1-conflicts0), float64(cas1-cas0)))
	// store
	log1 := env.srv.logStats()
	writes := float64(env.load.writes() - writes0)
	r.set("store.syncs_per_write", ratio(float64(log1.Syncs-log0.Syncs), writes))
	r.set("store.appends_per_write", ratio(float64(log1.Appends-log0.Appends), writes))
	r.set("store.snapshots", float64(log1.Snapshots-log0.Snapshots))
	r.set("store.disk_bytes_per_live_byte", env.srv.diskBytesPerLiveByte())
	// memcache
	mcGet := t.Layer("memcache.Get")
	mcPut := t.Layer("memcache.Put", "memcache.CAS")
	r.set("memcache.get_us", us(mcGet.Busy)/atLeastOne(mcGet.Calls))
	r.set("memcache.put_us", us(mcPut.Busy)/atLeastOne(mcPut.Calls))
	// feed
	dd := newDist(delivery)
	r.set("feed.delivery_p50_ms", dd.p50())
	r.set("feed.delivery_p99_ms", dd.at(99))
	r.set("feed.events", float64(srvDelta["feed_events_total"]))
	fallbacks := float64(cliDelta["feed_snapshot_fallbacks_total"])
	if watch.Fallback() {
		fallbacks++
	}
	r.set("feed.snapshot_fallbacks", fallbacks)
	// readcache
	if env.cl.cache != nil {
		c1 := readCacheCounters(env.cl)
		lookups := float64(c1.hits - cacheStats0.hits + c1.misses - cacheStats0.misses)
		rcGet := t.Layer("readcache.Get")
		r.set("readcache.hit_ratio", ratio(float64(c1.hits-cacheStats0.hits), lookups))
		r.set("readcache.origin_gets_per_get", ratio(float64(cliGet.Calls), lookups))
		r.set("readcache.self_us_per_get", us(selfPerOp(rcGet.Busy, rcGet.Calls, cliGet.Busy)))
		r.set("readcache.invalidations", float64(c1.invalidations-cacheStats0.invalidations))
		r.set("readcache.evictions", float64(c1.evictions-cacheStats0.evictions))
		r.set("readcache.flushes", float64(c1.flushes-cacheStats0.flushes))
	}
	// process and tracing
	r.set("proc.cpu_util", traced.cpu.Seconds()/traced.elapsed.Seconds())
	r.set("trace.spans", float64(t.SpanCount()))
	baseCPU, tracedCPU := base.windowCPUPerOp(), traced.windowCPUPerOp()
	r.set("trace.cpu_overhead_ratio", ratio(tracedCPU-baseCPU, baseCPU))
	baseP50, tracedP50 := newDist(base.opLat).p50(), newDist(traced.opLat).p50()
	r.set("trace.latency_overhead_ratio", ratio(tracedP50-baseP50, baseP50))
	r.note("untraced: %.1f us CPU/op, p50 %.3f ms; traced: %.1f us CPU/op, p50 %.3f ms", baseCPU, baseP50, tracedCPU, tracedP50)
	return nil
}

// atLeastOne returns n as a float, at least 1, for per-call averages.
func atLeastOne(n int64) float64 {
	if n < 1 {
		return 1
	}
	return float64(n)
}

// counterDelta returns every counter's growth between two snapshots.
func counterDelta(before, after metrics.Snapshot) map[string]int64 {
	d := make(map[string]int64, len(after.Counters))
	for name, v := range after.Counters {
		d[name] = v - before.Counters[name]
	}
	return d
}

// cacheCounters are the near cache's cumulative counters.
type cacheCounters struct{ hits, misses, invalidations, evictions, flushes int64 }

func readCacheCounters(c *wireClient) cacheCounters {
	s := c.cache.Stats()
	return cacheCounters{s.Hits, s.Misses, s.Invalidations, s.Evictions, s.Flushes}
}

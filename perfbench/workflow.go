package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/experiments"
	"geomds/internal/latency"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/registry"
	"geomds/internal/workflow"
	"geomds/internal/workloads"
)

// Shape of the workflow workloads: Montage in Table I's metadata-intensive
// scenario at half its operations per task, on 32 nodes spread over the
// four Azure sites, with the paper's capacity model and polling agents, at
// 100x time compression (the defaults of cmd/wfrun).
const (
	wfSizeFactor = 0.5
	wfNodes      = 32
	wfScale      = 0.01
	// wfMinSets is the fewest sets of four executions, one per strategy,
	// an untraced run makes; it reports the median of each metric over
	// them.
	wfMinSets = 2
	// wfVisibilitySample is how many produced files are looked up from
	// every site after the run.
	wfVisibilitySample = 25
)

// wfEnv is one freshly built multi-site environment for one strategy.
type wfEnv struct {
	wf     *workflow.Workflow
	stats  workflow.Stats
	lat    *latency.Model
	reg    *metrics.Registry
	fabric *core.Fabric
	ctrl   *core.Controller
	svc    *timedService
	eng    *workflow.Engine
	plan   workflow.Schedule
	topo   *cloud.Topology
	caches []*memcache.Cache // built by the benchmark only when tracing
	sleeps *sleepStats
	owned  []func() error
}

// sleepStats accounts the modelled waits the latency model actually slept.
type sleepStats struct {
	requested, slept atomic.Int64 // ns
}

func montageMI() *workflow.Workflow {
	sc := workloads.MetadataIntensive
	sc.OpsPerTask = int(float64(sc.OpsPerTask) * wfSizeFactor)
	return workloads.Montage(workloads.DefaultMontageConfig(sc))
}

// setUpWorkflow builds the workflow, the fabric, the strategy and the
// schedule. Untraced, the fabric builds its own instances exactly as
// cmd/wfrun does. Traced, the benchmark builds the same instances and
// caches itself so it can decorate them, and hooks the latency model's
// sleeper.
func setUpWorkflow(ctx context.Context, seed int64, kind core.StrategyKind, t *Tracer) (*wfEnv, error) {
	cfg := experiments.DefaultConfig()
	cfg.Scale = wfScale
	cfg.Nodes = wfNodes
	env := &wfEnv{wf: montageMI(), reg: metrics.NewRegistry(), topo: cloud.Azure4DC(), sleeps: &sleepStats{}}
	var err error
	if env.stats, err = env.wf.Stats(); err != nil {
		return nil, err
	}
	latOpts := []latency.Option{latency.WithScale(cfg.Scale), latency.WithSeed(seed)}
	if t != nil {
		latOpts = append(latOpts, latency.WithSleeper(func(d time.Duration) {
			start := time.Now()
			record(t, nil, "latency.sleep", "", func(context.Context) (struct{}, error) { //nolint:errcheck // sleeps cannot fail
				latency.PreciseSleep(d)
				return struct{}{}, nil
			})
			env.sleeps.requested.Add(int64(d))
			env.sleeps.slept.Add(int64(time.Since(start)))
		}))
	}
	env.lat = latency.New(env.topo, latOpts...)
	fabOpts := []core.FabricOption{
		core.WithCacheCapacity(cfg.ServiceTime, cfg.Concurrency),
		core.WithMetricsRegistry(env.reg),
	}
	if t != nil {
		insts := make(map[cloud.SiteID]registry.API)
		for _, s := range env.topo.Sites() {
			cache := memcache.New(memcache.Config{
				ServiceTime: cfg.ServiceTime,
				Concurrency: cfg.Concurrency,
				Sleep:       env.lat.Sleeper(),
				Metrics:     env.reg,
			})
			env.caches = append(env.caches, cache)
			insts[s.ID] = traceAPI(t, "registry.instance", registry.NewInstance(s.ID, traceStore(t, cache)))
		}
		fabOpts = append(fabOpts, core.WithInstances(insts))
	}
	env.fabric = core.NewFabric(env.topo, env.lat, fabOpts...)
	env.owned = append(env.owned, env.fabric.Close)
	env.ctrl = core.NewController(env.fabric,
		core.WithControllerSyncInterval(cfg.SyncInterval),
		core.WithControllerLazy(cfg.FlushInterval, core.DefaultMaxBatch))
	env.owned = append([]func() error{env.ctrl.Close}, env.owned...)
	svc, err := env.ctrl.Use(ctx, kind)
	if err != nil {
		env.close()
		return nil, err
	}
	env.svc = &timedService{MetadataService: svc, t: t}
	dep := cloud.NewDeployment(env.topo)
	dep.SpreadNodes(cfg.Nodes)
	if env.plan, err = (workflow.RoundRobinScheduler{}).Schedule(env.wf, dep); err != nil {
		env.close()
		return nil, err
	}
	env.eng = workflow.NewEngine(dep, env.svc, env.lat, workflow.EngineConfig{Metrics: env.reg})
	return env, nil
}

// close stops the strategy's agents, then the fabric.
func (e *wfEnv) close() error {
	var errs []error
	for _, c := range e.owned {
		errs = append(errs, c())
	}
	e.owned = nil
	return errors.Join(errs...)
}

// wfRun is what one workflow execution measured.
type wfRun struct {
	res       workflow.Result
	cpu, wall time.Duration
	setup     time.Duration
	modelled  time.Duration // injected WAN delay, simulated
	messages  int64
	allocs    uint64
	gcPause   time.Duration
	// dagOps is the metadata operations the DAG defines, polls excluded.
	dagOps int
	// stolen and ticks are the machine's CPU ticks stolen by the
	// hypervisor and wanted by its processors during the execution.
	stolen, ticks uint64
}

// ops is every metadata operation the run issued: task reads (polls
// included), task writes and stage-in writes.
func (r wfRun) ops() int { return r.res.MetadataOps() + r.res.StageInWrites }

// execute runs the workflow once and checks what it produced: every task
// completed, the writes and reads match the DAG, and after a flush a seeded
// sample of produced files is visible from every site.
func (e *wfEnv) execute(ctx context.Context, seed int64) (wfRun, error) {
	var run wfRun
	var ms0, ms1 runtime.MemStats
	// Start from a collected heap: the garbage of earlier executions is
	// not this execution's cost.
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	m0 := takeMark()
	start := time.Now()
	res, err := e.eng.Run(ctx, e.wf, e.plan)
	run.wall = time.Since(start)
	m1 := takeMark()
	run.cpu = m1.cpu - m0.cpu
	run.stolen, run.ticks = m1.steal-m0.steal, m1.busy-m0.busy
	runtime.ReadMemStats(&ms1)
	run.res = res
	run.dagOps = e.stats.MetadataOps
	run.allocs = ms1.Mallocs - ms0.Mallocs
	run.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	for _, ls := range e.lat.Stats() {
		run.modelled += ls.Injected
		run.messages += ls.Messages
	}
	if err != nil {
		return run, fmt.Errorf("%w: a task failed: %w", errIncorrect, err)
	}
	snap := e.reg.Snapshot()
	if done := snap.Counters["workflow_tasks_completed_total"]; done != int64(e.stats.Tasks) {
		return run, fmt.Errorf("%w: %d of %d tasks completed", errIncorrect, done, e.stats.Tasks)
	}
	wantWrites := e.stats.Files
	wantReads := e.stats.MetadataOps - wantWrites
	if res.Writes != wantWrites || res.Reads-res.Retries != wantReads {
		return run, fmt.Errorf("%w: %d writes and %d reads (polls excluded), the DAG has %d and %d",
			errIncorrect, res.Writes, res.Reads-res.Retries, wantWrites, wantReads)
	}
	if err := e.svc.Flush(ctx); err != nil {
		return run, fmt.Errorf("flush: %w", err)
	}
	var files []string
	for _, task := range e.wf.Tasks() {
		for _, out := range task.Outputs {
			files = append(files, out.Name)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, site := range e.topo.Sites() {
		for i := 0; i < wfVisibilitySample; i++ {
			name := files[rng.Intn(len(files))]
			if _, err := e.svc.MetadataService.Lookup(ctx, site.ID, name); err != nil {
				return run, fmt.Errorf("%w: produced file %q not visible from site %d after flush: %w", errIncorrect, name, site.ID, err)
			}
		}
	}
	return run, nil
}

// simMS converts wall-clock durations of the time-compressed run into
// simulated milliseconds.
func (e *wfEnv) simMS(ds []time.Duration) dist {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(e.lat.ToSimulated(d))
	}
	return newDist(out)
}

// runWorkflow runs Montage MI under each of the four strategies in turn, a
// fresh environment for each execution. Untraced, it repeats the set of
// four at least wfMinSets times and until the run's seconds are spent, and
// reports each metric's median over the sets; a set's latencies pool the
// four strategies' operations, its CPU time and operations are summed, and
// its throughput is the DAG's operations over the summed makespans. Traced,
// it runs one set untraced and one traced.
func runWorkflow(ctx context.Context, o options) (*results, error) {
	r := newResults()
	type set struct {
		runs             []wfRun
		lookups, creates []float64 // simulated ms, pooled over strategies
		cpu              time.Duration
		ops, dagOps      int
		makespan, setup  float64
		stolen, ticks    uint64
	}
	var sets []set
	var traced *Tracer
	var totals tracedTotals
	began := time.Now()
	for rep := 0; ; rep++ {
		if o.trace && rep == 2 || !o.trace && rep >= wfMinSets && time.Since(began) >= o.seconds {
			break
		}
		var t *Tracer
		if o.trace && rep == 1 {
			t = NewTracer()
			traced = t
		}
		var s set
		for k, kind := range core.Strategies {
			start, m0 := time.Now(), takeMark()
			env, err := setUpWorkflow(ctx, o.seed, kind, t)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", strategyName(kind), err)
			}
			setup := unstolen(time.Since(start), m0, takeMark())
			t.Enable(true)
			run, err := env.execute(ctx, o.seed)
			t.Enable(false)
			run.setup = setup
			r.attempted += run.ops()
			if err != nil {
				env.close() //nolint:errcheck // the run already failed
				return r, fmt.Errorf("%s: %w", strategyName(kind), err)
			}
			s.runs = append(s.runs, run)
			s.lookups = append(s.lookups, env.simMS(env.svc.lookup)...)
			s.creates = append(s.creates, env.simMS(env.svc.create)...)
			s.cpu += run.cpu
			s.ops += run.ops()
			s.dagOps += run.dagOps
			s.makespan += run.res.Makespan.Seconds()
			s.setup += setup.Seconds()
			s.stolen += run.stolen
			s.ticks += run.ticks
			r.note("set %d %-13s makespan %6.1f sim s; injected WAN delay %7.1f sim s over %d messages; CPU %.2f s over %.2f s wall (%.2f cores); set-up %.3f s",
				rep+1, strategyName(kind), run.res.Makespan.Seconds(), run.modelled.Seconds(), run.messages,
				run.cpu.Seconds(), run.wall.Seconds(), run.cpu.Seconds()/run.wall.Seconds(), setup.Seconds())
			if t != nil {
				reportStrategyLayers(r, &totals, env, run, sets[0].runs[k], strategyName(kind))
			}
			if err := env.close(); err != nil {
				return r, fmt.Errorf("%s: closing the environment: %w", strategyName(kind), err)
			}
		}
		sets = append(sets, s)
	}
	// Metrics are medians over the sets least disturbed by stolen CPU time.
	steal := make([]float64, len(sets))
	for i, s := range sets {
		steal[i] = ratio(float64(s.stolen), float64(s.ticks))
		r.note("set %d: %.1f%% of the host's CPU time stolen", i+1, 100*steal[i])
	}
	calm := calmest(steal)
	each := func(f func(s set) float64) float64 {
		var xs []float64
		for _, i := range calm {
			xs = append(xs, f(sets[i]))
		}
		return median(xs)
	}
	r.set("setup_s", each(func(s set) float64 { return s.setup }))
	r.set("get_p50_ms", each(func(s set) float64 { return newDist(s.lookups).p50() }))
	r.set("put_p50_ms", each(func(s set) float64 { return newDist(s.creates).p50() }))
	r.set("cpu_us_per_op", each(func(s set) float64 { return us(s.cpu) / float64(s.ops) }))
	r.set("throughput_ops_s", each(func(s set) float64 { return float64(s.dagOps) / s.makespan }))
	r.set("rss_peak_mb", peakRSSMB())
	for k, kind := range core.Strategies {
		makespan := each(func(s set) float64 { return s.runs[k].res.Makespan.Seconds() })
		r.note("makespan_%s_s %.2f sim s (median of the %d calm sets)", strategyName(kind), makespan, len(calm))
	}
	if traced != nil {
		base, run := sets[0], sets[1]
		var cpu, wall time.Duration
		var allocs uint64
		var gc time.Duration
		for _, x := range run.runs {
			cpu += x.cpu
			wall += x.wall
			allocs += x.allocs
			gc += x.gcPause
		}
		r.set("proc.cpu_util", cpu.Seconds()/wall.Seconds())
		r.set("go.allocs_per_op", float64(allocs)/float64(run.ops))
		r.set("go.gc_pause_ms", ms(gc))
		reportTracedLayers(r, traced, totals)
		r.set("trace.spans", float64(traced.SpanCount()))
		baseCPU, tracedCPU := us(base.cpu)/float64(base.ops), us(run.cpu)/float64(run.ops)
		r.set("trace.cpu_overhead_ratio", ratio(tracedCPU-baseCPU, baseCPU))
		r.set("trace.latency_overhead_ratio", ratio(run.makespan-base.makespan, base.makespan))
		if err := traced.WriteSpans(o, r); err != nil {
			return r, err
		}
	}
	return r, nil
}

// reportStrategyLayers sets the per-layer metrics of one strategy's traced
// execution; base is its untraced execution.
func reportStrategyLayers(r *results, tot *tracedTotals, env *wfEnv, run, base wfRun, s string) {
	c := env.reg.Snapshot().Counters
	res := run.res
	r.set("core.create_p50_ms."+s, env.simMS(env.svc.create).p50())
	r.set("core.lookup_p50_ms."+s, env.simMS(env.svc.lookup).p50())
	r.set("core.remote_op_ratio."+s, ratio(float64(c["core_remote_ops_total"]), float64(c["core_ops_total"])))
	r.set("workflow.makespan_s."+s, res.Makespan.Seconds())
	r.set("workflow.retries_per_read."+s, ratio(float64(res.Retries), float64(res.Reads-res.Retries)))
	var busy time.Duration
	for _, b := range res.NodeBusy {
		busy += b
	}
	r.set("workflow.node_busy_frac."+s, ratio(busy.Seconds(), float64(wfNodes)*res.Makespan.Seconds()))
	r.set("latency.modelled_s."+s, run.modelled.Seconds())
	r.set("latency.messages."+s, float64(run.messages))
	if h, ok := env.reg.Snapshot().Histograms["memcache_slot_wait_ns"]; ok {
		r.set("memcache.slot_wait_p99_ms."+s, ms(env.lat.ToSimulated(time.Duration(h.Quantile(0.99)))))
	}
	r.note("%s traced: makespan %.1f sim s (untraced %.1f)", s, res.Makespan.Seconds(), base.res.Makespan.Seconds())
	// Strategy-specific machinery: the hybrid's local hits and lazy
	// propagator, the replicated strategy's sync agent.
	if hits := float64(c["core_dr_local_hits_total"]); hits > 0 {
		r.set("core.dr_local_hit_ratio", ratio(hits, hits+float64(c["core_dr_remote_reads_total"])))
	}
	if flushes := float64(c["propagator_flushes_total"]); flushes > 0 {
		r.set("core.propagator_flushes", flushes)
		r.set("core.propagator_mean_batch", ratio(float64(c["propagator_propagated_total"]), flushes))
		r.set("core.propagator_requeued", float64(c["propagator_requeued_total"]))
	}
	if rounds := c["sync_rounds_total"]; rounds > 0 {
		r.set("core.sync_rounds", float64(rounds))
	}
	cas, conflicts := sumCAS(env.caches)
	tot.cas += cas
	tot.conflicts += conflicts
	tot.requested += env.sleeps.requested.Load()
	tot.slept += env.sleeps.slept.Load()
}

// tracedTotals sums, over the traced executions, the counts the
// decorators and the sleeper hook keep per environment.
type tracedTotals struct {
	cas, conflicts   uint64
	requested, slept int64 // ns
}

// reportTracedLayers sets the per-layer metrics the four traced executions
// share: the registry instances, the cache tier under them, and the
// latency model's sleeps.
func reportTracedLayers(r *results, t *Tracer, tot tracedTotals) {
	inst := t.LayerPrefix("registry.instance.")
	mc := t.LayerPrefix("memcache.")
	r.set("registry.instance_self_us_per_op", us(selfPerOp(inst.Busy, inst.Calls, mc.Busy)))
	r.set("registry.cas_conflict_ratio", ratio(float64(tot.conflicts), float64(tot.cas)))
	mcGet := t.Layer("memcache.Get", "memcache.GetBatch")
	mcPut := t.Layer("memcache.Put", "memcache.CAS", "memcache.PutBatch")
	r.set("memcache.get_us", us(mcGet.Busy)/atLeastOne(mcGet.Calls))
	r.set("memcache.put_us", us(mcPut.Busy)/atLeastOne(mcPut.Calls))
	r.set("latency.slept_s", time.Duration(tot.slept).Seconds())
	r.set("latency.oversleep_ratio", ratio(float64(tot.slept-tot.requested), float64(tot.requested)))
}

// strategyName is the metric-name form of a strategy.
func strategyName(k core.StrategyKind) string {
	switch k {
	case core.Centralized:
		return "centralized"
	case core.Replicated:
		return "replicated"
	case core.Decentralized:
		return "decentralized"
	default:
		return "hybrid"
	}
}

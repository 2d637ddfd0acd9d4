package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/limits"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/readcache"
	"geomds/internal/registry"
	"geomds/internal/rpc"
	"geomds/internal/store"
	"geomds/internal/workloads"
)

// Shape of the wire workloads. The server is the in-process equivalent of
//
//	metaserver -shards 2 -data-dir D -fsync always -feed -tenant-config F
//
// with quotas in F too generous to ever refuse a request.
const (
	wireSite    = cloud.SiteID(1)
	wireShards  = 2
	clientPool  = 2
	p99LimitMS  = 20.0   // latency limit behind max_rate_ops_s
	rwPreload   = 10_000 // keys wire_rw creates before it measures
	zipfKeys    = 100_000
	searchStep  = 1500 * time.Millisecond
	benchTenant = "perfbench"
)

// wireServer is one running server tier and the handles the benchmark reads
// counters from.
type wireServer struct {
	dirs   []string
	reg    *metrics.Registry
	insts  []*registry.Instance
	caches []*memcache.Cache
	router *registry.Router
	srv    *rpc.Server
	addr   string
}

// generousLimits admits everything the benchmark can offer while still
// running every request through admission.
func generousLimits() limits.Config {
	return limits.Config{
		Default:     limits.TenantLimit{OpsPerSec: 1e9, OpsBurst: 1e9, BytesPerSec: 1e12, BytesBurst: 1e12},
		MaxInflight: 1 << 20,
	}
}

// startWireServer builds the tier under dir and serves it on a loopback
// port. With a tracer, calls into the Router, each Instance and each cache
// are timed by decorators (recording only while the tracer is enabled).
func startWireServer(dir string, t *Tracer) (*wireServer, error) {
	s := &wireServer{reg: metrics.NewRegistry()}
	shards := make([]registry.API, wireShards)
	for i := range shards {
		cache := memcache.New(memcache.Config{Metrics: s.reg})
		s.caches = append(s.caches, cache)
		var backing registry.Store = cache
		if t != nil {
			backing = traceStore(t, cache)
		}
		sub := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		inst, err := registry.OpenInstance(wireSite, backing, sub,
			[]store.Option{store.WithFsync(store.FsyncAlways)},
			registry.WithChangeFeed(feed.WithCapacity(feed.DefaultCapacity), feed.WithLogMetrics(s.reg)))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.dirs = append(s.dirs, sub)
		s.insts = append(s.insts, inst)
		shards[i] = inst
		if t != nil {
			shards[i] = traceAPI(t, "registry.instance", inst)
		}
	}
	router, err := registry.NewRouter(wireSite, shards,
		registry.WithRouterMetrics(s.reg),
		registry.WithRouterReplication(1),
		registry.WithRouterWriteConcern(registry.WriteAll))
	if err != nil {
		s.Close()
		return nil, err
	}
	s.router = router
	var served registry.API = router
	if t != nil {
		served = traceAPI(t, "registry.router", router)
	}
	s.srv = rpc.NewServer(served, log.New(io.Discard, "", 0),
		rpc.WithMaxInflight(rpc.DefaultMaxInflight),
		rpc.WithServerMetrics(s.reg),
		rpc.WithServerLimits(limits.New(generousLimits(), s.reg)))
	if s.addr, err = s.srv.Start("127.0.0.1:0"); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close stops the server, then the router, then flushes every shard's log.
func (s *wireServer) Close() error {
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, inst := range s.insts {
		errs = append(errs, inst.Close())
	}
	s.srv, s.router, s.insts = nil, nil, nil
	return errors.Join(errs...)
}

// logStats sums the shards' WAL counters.
func (s *wireServer) logStats() store.LogStats {
	var sum store.LogStats
	for _, inst := range s.insts {
		ls := inst.Storage().LogStats()
		sum.Appends += ls.Appends
		sum.Syncs += ls.Syncs
		sum.Snapshots += ls.Snapshots
	}
	return sum
}

// diskBytesPerLiveByte is the bytes the shard directories hold per byte of
// live entry value.
func (s *wireServer) diskBytesPerLiveByte() float64 {
	var disk, live int64
	for _, d := range s.dirs {
		filepath.Walk(d, func(_ string, fi os.FileInfo, err error) error { //nolint:errcheck // a vanished file just counts as 0 bytes
			if err == nil && fi.Mode().IsRegular() {
				disk += fi.Size()
			}
			return nil
		})
	}
	for _, inst := range s.insts {
		for _, it := range inst.Store().Snapshot() {
			live += int64(len(it.Value))
		}
	}
	return ratio(float64(disk), float64(live))
}

// sumCAS sums the compare-and-swap calls and conflicts of caches.
func sumCAS(caches []*memcache.Cache) (cas, conflicts uint64) {
	for _, c := range caches {
		st := c.Stats()
		cas += st.CASes
		conflicts += st.Conflicts
	}
	return cas, conflicts
}

// wireClient is the benchmark's side of the wire: a pooled rpc.Client and
// the API the load calls (the client itself, or a near cache over it).
type wireClient struct {
	reg    *metrics.Registry
	client *rpc.Client
	origin registry.API // the client, decorated when tracing
	cache  *readcache.Cache
}

func dialWire(ctx context.Context, addr string, t *Tracer) (*wireClient, error) {
	c := &wireClient{reg: metrics.NewRegistry()}
	client, err := rpc.Dial(ctx, addr, rpc.WithPoolSize(clientPool), rpc.WithTenant(benchTenant), rpc.WithMetrics(c.reg))
	if err != nil {
		return nil, err
	}
	c.client = client
	c.origin = client
	if t != nil {
		c.origin = traceAPI(t, "rpc.client", client)
	}
	return c, nil
}

// attachCache puts a feed-coherent near cache of the default capacity in
// front of the origin, kept coherent by the client's watch stream.
func (c *wireClient) attachCache(ctx context.Context, t *Tracer) registry.API {
	c.cache = readcache.New(c.origin, readcache.Options{Metrics: c.reg})
	c.cache.AttachFeed(ctx, []feed.Source{c.client.FeedSource("origin")}, feed.WithCombinerMetrics(c.reg))
	if t != nil {
		return traceAPI(t, "readcache", c.cache)
	}
	return c.cache
}

func (c *wireClient) Close() {
	if c.cache != nil {
		c.cache.Close() //nolint:errcheck // Close only detaches the feed and never fails
	}
	c.client.Close() //nolint:errcheck // teardown: the server goes next
}

// violations collects correctness failures seen while the load runs.
type violations struct {
	n     atomic.Int64
	mu    sync.Mutex
	first error
}

func (v *violations) add(format string, args ...any) error {
	err := fmt.Errorf("%w: %s", errIncorrect, fmt.Sprintf(format, args...))
	if v.n.Add(1) == 1 {
		v.mu.Lock()
		v.first = err
		v.mu.Unlock()
	}
	return err
}

func (v *violations) err() error {
	if n := v.n.Load(); n > 0 {
		v.mu.Lock()
		defer v.mu.Unlock()
		return fmt.Errorf("%d violations, first: %w", n, v.first)
	}
	return nil
}

// wireLoad is one wire workload's inputs and checks.
type wireLoad interface {
	// preload fills the freshly started tier in-process, before the
	// client connects.
	preload(ctx context.Context, s *wireServer) error
	// connect binds the load's operations to the client side.
	connect(ctx context.Context, c *wireClient, t *Tracer)
	// rate is the offered rate of the fixed-rate phase, in ops/s.
	rate() float64
	// take returns the next n operations of the seeded stream.
	take(n int) exec
	// writes is the number of acknowledged writes so far.
	writes() int64
	// verify runs the workload's correctness checks once the load has
	// stopped; the tier is still running.
	verify(ctx context.Context, s *wireServer, c *wireClient) error
	// verifyDurable runs after the tier was closed, against its data
	// directories.
	verifyDurable(ctx context.Context, dirs []string) error
}

// newEntry builds the deterministic entry number i of a seeded stream.
func newEntry(name string, rng *rand.Rand, i int) registry.Entry {
	return registry.Entry{
		Name:      name,
		Size:      int64(1 + rng.Intn(4<<20)),
		Producer:  fmt.Sprintf("task-%d", i%997),
		Locations: []registry.Location{randLocation(rng)},
		Created:   time.Unix(1_700_000_000+int64(i), 0).UTC(),
	}
}

func randLocation(rng *rand.Rand) registry.Location {
	return registry.Location{Site: cloud.SiteID(rng.Intn(4)), Node: cloud.NodeID(rng.Intn(32))}
}

// --- wire_rw ---------------------------------------------------------------

// The wire_rw mix: 45% Create of a new name, 5% AddLocation on a recent
// name, 50% Get of a recent name. "Recent" is one of the last rwWindow
// names created, skipping the newest rwLag: a consumer reads what a
// producer finished moments ago (the paper's producer-to-consumer hand-off).
const (
	rwCreateShare = 0.45
	rwAddLocShare = 0.05
	rwWindow      = 1350 // about 3 s of creates at the fixed rate
	rwLag         = 23   // about 50 ms of creates at the fixed rate
)

type rwKey struct {
	name  string
	entry registry.Entry
	// acked is closed once the key's Create was acknowledged.
	acked chan struct{}
	mu    sync.Mutex
	locs  []registry.Location // acknowledged AddLocations
}

type rwOpKind uint8

const (
	rwCreate rwOpKind = iota
	rwAddLoc
	rwGet
)

type rwOp struct {
	kind rwOpKind
	key  *rwKey
	loc  registry.Location
}

type rwLoad struct {
	seed  int64
	rng   *rand.Rand
	keys  []*rwKey
	api   registry.API
	acked atomic.Int64
	viol  violations
}

func newRWLoad(seed int64) *rwLoad {
	return &rwLoad{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

func (l *rwLoad) newKey() *rwKey {
	i := len(l.keys)
	name := fmt.Sprintf("rw/%d/%08d", l.seed, i)
	k := &rwKey{name: name, entry: newEntry(name, l.rng, i), acked: make(chan struct{})}
	l.keys = append(l.keys, k)
	return k
}

// recent picks a recently created key.
func (l *rwLoad) recent() *rwKey {
	hi := len(l.keys) - rwLag
	lo := len(l.keys) - rwWindow
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		hi = lo + 1
	}
	return l.keys[lo+l.rng.Intn(hi-lo)]
}

// nextOps draws the next n operations of the stream.
func (l *rwLoad) nextOps(n int) []rwOp {
	ops := make([]rwOp, n)
	for i := range ops {
		switch r := l.rng.Float64(); {
		case r < rwCreateShare || len(l.keys) == 0:
			ops[i] = rwOp{kind: rwCreate, key: l.newKey()}
		case r < rwCreateShare+rwAddLocShare:
			ops[i] = rwOp{kind: rwAddLoc, key: l.recent(), loc: randLocation(l.rng)}
		default:
			ops[i] = rwOp{kind: rwGet, key: l.recent()}
		}
	}
	return ops
}

func (l *rwLoad) preload(ctx context.Context, s *wireServer) error {
	batch := make([]registry.Entry, 0, rwPreload)
	for i := 0; i < rwPreload; i++ {
		batch = append(batch, l.newKey().entry)
	}
	if _, err := s.router.PutMany(ctx, batch); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	for _, k := range l.keys {
		close(k.acked)
	}
	return nil
}

func (l *rwLoad) connect(_ context.Context, c *wireClient, _ *Tracer) { l.api = c.origin }

func (l *rwLoad) writes() int64 { return l.acked.Load() }

// rate is half the 2,000 ops/s of wire_cached_zipf: every other wire_rw
// operation is an fsynced write, about 0.5 ms of CPU per operation, so
// 2,000 ops/s keeps one of the two cores busy and a host that steals a
// fifth of the machine's time pushes the tier into a growing backlog.
func (l *rwLoad) rate() float64 { return 1000 }

// waitAcked blocks until k's Create was acknowledged: a consumer cannot
// name a file before its producer published it.
func waitAcked(ctx context.Context, k *rwKey) error {
	select {
	case <-k.acked:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("waiting for the create of %q: %w", k.name, ctx.Err())
	}
}

func (l *rwLoad) take(n int) exec {
	ops := l.nextOps(n)
	return func(ctx context.Context, i int, due time.Time, rec *recorder) error {
		op := ops[i]
		switch op.kind {
		case rwCreate:
			if _, err := l.api.Create(ctx, op.key.entry); err != nil {
				return err
			}
			close(op.key.acked)
			l.acked.Add(1)
			rec.add(i, classPut, due)
		case rwAddLoc:
			if err := waitAcked(ctx, op.key); err != nil {
				return err
			}
			if _, err := l.api.AddLocation(ctx, op.key.name, op.loc); err != nil {
				return err
			}
			op.key.mu.Lock()
			op.key.locs = append(op.key.locs, op.loc)
			op.key.mu.Unlock()
			l.acked.Add(1)
			rec.add(i, classPut, due)
		case rwGet:
			if err := waitAcked(ctx, op.key); err != nil {
				return err
			}
			e, err := l.api.Get(ctx, op.key.name)
			if errors.Is(err, registry.ErrNotFound) {
				return l.viol.add("Get of acknowledged key %q returned not found", op.key.name)
			}
			if err != nil {
				return err
			}
			if e.Name != op.key.name {
				return l.viol.add("Get of %q returned entry %q", op.key.name, e.Name)
			}
			rec.add(i, classGet, due)
		}
		return nil
	}
}

func (l *rwLoad) verify(context.Context, *wireServer, *wireClient) error { return l.viol.err() }

// verifyDurable reopens the closed tier's data directories and confirms
// every acknowledged Create and AddLocation is in them.
func (l *rwLoad) verifyDurable(ctx context.Context, dirs []string) error {
	stored := make(map[string]registry.Entry)
	for _, d := range dirs {
		inst, err := registry.OpenInstance(wireSite, memcache.New(memcache.Config{}), d, nil)
		if err != nil {
			return fmt.Errorf("reopen %s: %w", d, err)
		}
		entries, err := inst.Entries(ctx)
		inst.Close() //nolint:errcheck // opened only to read
		if err != nil {
			return fmt.Errorf("read back %s: %w", d, err)
		}
		for _, e := range entries {
			stored[e.Name] = e
		}
	}
	var lost, lostLocs int
	for _, k := range l.keys {
		select {
		case <-k.acked:
		default:
			continue
		}
		e, ok := stored[k.name]
		if !ok {
			lost++
			continue
		}
		for _, loc := range k.locs {
			if !e.HasLocation(loc) {
				lostLocs++
			}
		}
	}
	if lost > 0 || lostLocs > 0 {
		return fmt.Errorf("%w: after reopening, %d acknowledged creates and %d acknowledged locations are missing", errIncorrect, lost, lostLocs)
	}
	return nil
}

// --- wire_cached_zipf ------------------------------------------------------

// The wire_cached_zipf mix: 95% Get of a Zipfian-ranked key of zipfKeys
// preloaded ones through the near cache, 5% Put of such a key through the
// cache followed at once by a Get of it (write-then-read). The Zipf
// exponent puts about 80% of Gets on the cached head: with the YCSB
// default of 0.99 barely 60% hit once writes invalidate hot names, so the
// median Get falls on the border between hits and wire round trips and
// swings between them from run to run.
const (
	zipfWriteShare = 0.05
	zipfS          = 1.2
)

type zipfOp struct {
	write bool
	rank  int
	entry registry.Entry
}

type zipfLoad struct {
	seed    int64
	rng     *rand.Rand
	sampler *workloads.KeySampler
	names   []string
	api     registry.API
	acked   atomic.Int64
	viol    violations
	nextID  int
}

func newZipfLoad(seed int64) *zipfLoad {
	l := &zipfLoad{seed: seed, rng: rand.New(rand.NewSource(seed)), sampler: workloads.NewKeySampler(workloads.KeyDist{Kind: workloads.KeyZipfian, ZipfS: zipfS}, zipfKeys)}
	l.names = make([]string, zipfKeys)
	for i := range l.names {
		l.names[i] = fmt.Sprintf("zipf/%d/%06d", seed, i)
	}
	return l
}

func (l *zipfLoad) nextOps(n int) []zipfOp {
	ops := make([]zipfOp, n)
	for i := range ops {
		write := l.rng.Float64() < zipfWriteShare
		rank := l.sampler.Rank(l.rng, zipfKeys)
		ops[i] = zipfOp{write: write, rank: rank}
		if write {
			l.nextID++
			ops[i].entry = newEntry(l.names[rank], l.rng, zipfKeys+l.nextID)
		}
	}
	return ops
}

func (l *zipfLoad) preload(ctx context.Context, s *wireServer) error {
	const batch = 5000
	rng := rand.New(rand.NewSource(l.seed ^ 0x5eed))
	for lo := 0; lo < zipfKeys; lo += batch {
		entries := make([]registry.Entry, 0, batch)
		for i := lo; i < lo+batch && i < zipfKeys; i++ {
			entries = append(entries, newEntry(l.names[i], rng, i))
		}
		if _, err := s.router.PutMany(ctx, entries); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

func (l *zipfLoad) connect(ctx context.Context, c *wireClient, t *Tracer) {
	l.api = c.attachCache(ctx, t)
}

func (l *zipfLoad) writes() int64 { return l.acked.Load() }

func (l *zipfLoad) rate() float64 { return 2000 }

func (l *zipfLoad) take(n int) exec {
	ops := l.nextOps(n)
	return func(ctx context.Context, i int, due time.Time, rec *recorder) error {
		op := ops[i]
		name := l.names[op.rank]
		if !op.write {
			if _, err := l.api.Get(ctx, name); err != nil {
				if errors.Is(err, registry.ErrNotFound) {
					return l.viol.add("Get of preloaded key %q returned not found", name)
				}
				return err
			}
			rec.add(i, classGet, due)
			return nil
		}
		w, err := l.api.Put(ctx, op.entry)
		if err != nil {
			return err
		}
		l.acked.Add(1)
		rec.add(i, classPut, due)
		readAt := time.Now()
		e, err := l.api.Get(ctx, name)
		if err != nil {
			return err
		}
		if e.Version < w.Version {
			return l.viol.add("write-then-read of %q returned version %d after the write was acknowledged at version %d", name, e.Version, w.Version)
		}
		rec.add(i, classGet, readAt)
		return nil
	}
}

// verify checks that, once the feed has drained, the near cache agrees with
// the origin on a sample of keys: the 1000 hottest and 1000 drawn from the
// seed. A key that disagrees is re-read until the deadline, so only a cache
// that stays stale after the feed delivered everything fails.
func (l *zipfLoad) verify(ctx context.Context, s *wireServer, c *wireClient) error {
	if err := l.viol.err(); err != nil {
		return err
	}
	if _, err := s.router.FeedBarrier(ctx); err != nil {
		return fmt.Errorf("feed barrier: %w", err)
	}
	rng := rand.New(rand.NewSource(l.seed ^ 0xc4ec))
	var sample []string
	for i := 0; i < 1000; i++ {
		sample = append(sample, l.names[i], l.names[rng.Intn(zipfKeys)])
	}
	deadline := time.Now().Add(3 * time.Second)
	for _, name := range sample {
		for {
			cached, cerr := c.cache.Get(ctx, name)
			origin, oerr := s.router.Get(ctx, name)
			if cerr == nil && oerr == nil && cached.Version == origin.Version && cached.Equal(origin) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%w: near cache disagrees with the origin on %q after the feed drained: cache v%d (%v), origin v%d (%v)",
					errIncorrect, name, cached.Version, cerr, origin.Version, oerr)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

func (l *zipfLoad) verifyDurable(context.Context, []string) error { return nil }

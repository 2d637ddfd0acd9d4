package readcache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

var ctx = context.Background()

// countingAPI wraps a registry.API and counts the operations that actually
// reach it, so tests can assert which reads the cache absorbed. getGate,
// when non-nil, is received from at the top of every Get — the fence tests
// use it to hold a fill mid-flight.
type countingAPI struct {
	registry.API
	gets    atomic.Int64
	getGate chan struct{}
}

func (a *countingAPI) Get(ctx context.Context, name string) (registry.Entry, error) {
	if a.getGate != nil {
		<-a.getGate
	}
	a.gets.Add(1)
	return a.API.Get(ctx, name)
}

func (a *countingAPI) GetMany(ctx context.Context, names []string) ([]registry.Entry, error) {
	a.gets.Add(int64(len(names)))
	return a.API.GetMany(ctx, names)
}

// newFedInstance builds a feeding in-process instance plus its feed source.
func newFedInstance(t *testing.T, site cloud.SiteID) (*registry.Instance, feed.Source) {
	t.Helper()
	inst := registry.NewInstance(site, memcache.New(memcache.Config{}), registry.WithChangeFeed())
	t.Cleanup(func() { _ = inst.Close() })
	return inst, feed.Source{
		Name: "origin",
		Subscribe: func(ctx context.Context, from uint64) (feed.Stream, error) {
			return inst.ChangeFeed().Subscribe(from)
		},
		Snapshot: inst.FeedSnapshot,
	}
}

func entry(name string, size int64) registry.Entry {
	return registry.NewEntry(name, size, "test", registry.Location{Site: 1, Node: 1})
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// attach wires the cache to the source and waits until the subscription is
// live (the cache serves through until then).
func attach(t *testing.T, c *Cache, src feed.Source) {
	t.Helper()
	actx, cancel := context.WithCancel(ctx)
	t.Cleanup(cancel)
	c.AttachFeed(actx, []feed.Source{src})
	t.Cleanup(func() { _ = c.Close() })
	waitFor(t, "feed subscription", func() bool { return !c.serveThrough() })
}

func TestGetCachesAndServesLocally(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	origin := &countingAPI{API: inst}
	c := New(origin, Options{})
	attach(t, c, src)

	if _, err := inst.Put(ctx, entry("a", 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Get(ctx, "a"); err != nil {
			t.Fatal(err)
		}
	}
	// The put's own feed event may invalidate the first fill; after the
	// feed quiesces every further Get must be local.
	before := origin.gets.Load()
	for i := 0; i < 10; i++ {
		if _, err := c.Get(ctx, "a"); err != nil {
			t.Fatal(err)
		}
	}
	if got := origin.gets.Load() - before; got > 1 {
		t.Fatalf("%d Gets reached the origin; want at most 1 (cache should absorb them)", got)
	}
	if st := c.Stats(); st.Hits == 0 {
		t.Fatalf("no hits recorded: %+v", st)
	}
}

func TestNegativeCaching(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	origin := &countingAPI{API: inst}
	c := New(origin, Options{})
	attach(t, c, src)

	for i := 0; i < 5; i++ {
		if _, err := c.Get(ctx, "ghost"); !errors.Is(err, registry.ErrNotFound) {
			t.Fatalf("want ErrNotFound, got %v", err)
		}
	}
	if got := origin.gets.Load(); got != 1 {
		t.Fatalf("%d origin Gets for a repeated not-found; want 1", got)
	}
	if ok, err := registry.Contains(ctx, c, "ghost"); ok || err != nil {
		t.Fatalf("Contains(ghost) = %v, %v over a cached negative; want false, nil", ok, err)
	}
	if got := origin.gets.Load(); got != 1 {
		t.Fatalf("Contains over a cached negative reached the origin (%d Gets)", got)
	}
}

// TestFillDoesNotOverwriteInvalidation pins the fencing protocol: a fill
// that started before an invalidation event must not install its (stale)
// result after the event was applied.
func TestFillDoesNotOverwriteInvalidation(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	origin := &countingAPI{API: inst, getGate: make(chan struct{}, 16)}
	c := New(origin, Options{})
	attach(t, c, src)

	if _, err := inst.Put(ctx, entry("k", 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "put event applied", func() bool { return c.Stats().Invalidations+int64(c.CachedLen()) > 0 })

	// Start a fill and hold it at the origin.
	fillDone := make(chan registry.Entry, 1)
	go func() {
		e, err := c.Get(ctx, "k")
		if err != nil {
			t.Error(err)
		}
		fillDone <- e
	}()
	// Let the fill record its fence and block in origin.Get. There is no
	// handle on "goroutine reached the gate", so give it a moment.
	time.Sleep(20 * time.Millisecond)

	// A newer write lands at the origin; its event invalidates "k".
	inv := c.Stats().Invalidations
	if _, err := inst.Put(ctx, entry("k", 2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "invalidation applied", func() bool {
		st := c.Stats()
		return st.Invalidations > inv || func() bool {
			e, _, ok := c.lookup("k")
			return ok && e.Size == 2
		}()
	})

	// Release the held fill: its result (read either before or after the
	// write — both are possible) must not mask the newer value.
	close(origin.getGate)
	<-fillDone

	e, err := c.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if e.Size != 2 {
		t.Fatalf("stale entry served after invalidation: size %d, want 2", e.Size)
	}
}

// TestFenceRaceUnderLoad hammers one key with concurrent fills, writes and
// event-driven invalidations; at every quiescent point the cache must agree
// with the origin. Run with -race; the nightly chaos loop runs it -count=20.
func TestFenceRaceUnderLoad(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	c := New(inst, Options{})
	attach(t, c, src)

	const (
		writers = 4
		readers = 8
		rounds  = 200
	)
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 1; i <= rounds; i++ {
				if _, err := c.Put(ctx, entry(fmt.Sprintf("hot/%d", w%2), int64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.Get(ctx, fmt.Sprintf("hot/%d", r%2))
				if err != nil && !errors.Is(err, registry.ErrNotFound) {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	// Quiesce: drain the feed, then the cache must agree with the origin.
	head, err := inst.FeedBarrier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "feed drained", func() bool { return c.combiner.Cursor("origin") >= head })
	for k := 0; k < 2; k++ {
		name := fmt.Sprintf("hot/%d", k)
		want, err := inst.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size != want.Size {
			t.Fatalf("%s: cache size %d, origin size %d", name, got.Size, want.Size)
		}
	}
}

// TestDeleteEventPurgesPositiveAndNegative pins the issue's requirement:
// a deletion event must purge both entry kinds.
func TestDeleteEventPurgesPositiveAndNegative(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	origin := &countingAPI{API: inst}
	c := New(origin, Options{})
	attach(t, c, src)

	// Positive entry cached, then deleted behind the cache's back (directly
	// on the instance, so only the event can tell the cache).
	if _, err := inst.Put(ctx, entry("pos", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "pos"); err != nil {
		t.Fatal(err)
	}
	if err := inst.Delete(ctx, "pos"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delete event", func() bool {
		_, err := c.Get(ctx, "pos")
		return errors.Is(err, registry.ErrNotFound)
	})

	// Negative entry cached, then the name appears: the put event must
	// purge the remembered not-found.
	if _, err := c.Get(ctx, "neg"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatal("want not-found")
	}
	if _, err := inst.Put(ctx, entry("neg", 7)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "put event purging the negative entry", func() bool {
		e, err := c.Get(ctx, "neg")
		return err == nil && e.Size == 7
	})
}

func TestWriteThroughInvalidation(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	c := New(inst, Options{})
	attach(t, c, src)

	if _, err := c.Put(ctx, entry("w", 1)); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(ctx, "w"); err != nil || e.Size != 1 {
		t.Fatalf("read-your-write failed: %v %v", e, err)
	}
	if _, err := c.Put(ctx, entry("w", 2)); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(ctx, "w"); err != nil || e.Size != 2 {
		t.Fatalf("read-your-write after overwrite failed: %v %v", e, err)
	}
	if err := c.Delete(ctx, "w"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "w"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("read-your-delete failed: %v", err)
	}
	// Bulk write-through.
	if _, err := c.PutMany(ctx, []registry.Entry{entry("w", 3), entry("x", 1)}); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(ctx, "w"); err != nil || e.Size != 3 {
		t.Fatalf("read-your-PutMany failed: %v %v", e, err)
	}
	if _, err := c.DeleteMany(ctx, []string{"w", "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "x"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatal("read-your-DeleteMany failed")
	}
	if _, err := c.Merge(ctx, []registry.Entry{entry("m", 5)}); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(ctx, "m"); err != nil || e.Size != 5 {
		t.Fatalf("read-your-Merge failed: %v %v", e, err)
	}
	if _, err := c.Create(ctx, entry("c", 9)); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(ctx, "c"); err != nil || e.Size != 9 {
		t.Fatalf("read-your-Create failed: %v %v", e, err)
	}
	if _, err := c.AddLocation(ctx, "c", registry.Location{Site: 2, Node: 3}); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(ctx, "c"); err != nil || len(e.Locations) != 2 {
		t.Fatalf("read-your-AddLocation failed: %v %v", e, err)
	}
}

// droppableStream is a feed.Stream the test ends on demand, simulating a
// lag drop (or compaction, shard restart, transport loss — the cache cannot
// tell and must not care).
type droppableStream struct {
	ch  chan feed.Event
	err error
}

func (s *droppableStream) Events() <-chan feed.Event { return s.ch }
func (s *droppableStream) Err() error                { return s.err }
func (s *droppableStream) Close()                    {}

// TestLagFlushesAndServesThrough pins the staleness contract: the moment the
// feed stream ends (lag drop here), the cache must flush and serve through;
// once resubscribed it caches again.
func TestLagFlushesAndServesThrough(t *testing.T) {
	inst := registry.NewInstance(1, memcache.New(memcache.Config{}))
	origin := &countingAPI{API: inst}
	c := New(origin, Options{})

	var (
		mu      sync.Mutex
		stream  = &droppableStream{ch: make(chan feed.Event)}
		allowed = true
	)
	src := feed.Source{
		Name: "origin",
		Subscribe: func(ctx context.Context, from uint64) (feed.Stream, error) {
			mu.Lock()
			defer mu.Unlock()
			if !allowed {
				return nil, errors.New("subscribe refused")
			}
			stream = &droppableStream{ch: make(chan feed.Event)}
			return stream, nil
		},
	}
	attach(t, c, src)

	if _, err := inst.Put(ctx, entry("k", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if got := origin.gets.Load(); got != 1 {
		t.Fatalf("%d origin gets priming the cache; want 1", got)
	}

	// Drop the stream with resubscription refused: the cache must flush and
	// serve every read through while the gap is open.
	mu.Lock()
	allowed = false
	flushes := c.Stats().Flushes
	close(stream.ch)
	stream.err = feed.ErrLagged
	mu.Unlock()
	waitFor(t, "lag-induced flush", func() bool { return c.Stats().Flushes > flushes })
	waitFor(t, "serve-through state", func() bool { return c.serveThrough() })
	before := origin.gets.Load()
	for i := 0; i < 3; i++ {
		if _, err := c.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	if got := origin.gets.Load() - before; got != 3 {
		t.Fatalf("%d origin gets while degraded; want 3 (no caching)", got)
	}

	// Allow the resubscribe: the cache must start filling again.
	mu.Lock()
	allowed = true
	mu.Unlock()
	waitFor(t, "resubscribe", func() bool { return !c.serveThrough() })
	if _, err := c.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	before = origin.gets.Load()
	if _, err := c.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if origin.gets.Load() != before {
		t.Fatal("Get reached the origin after resubscription; want a cache hit")
	}
}

func TestFeedlessTTLFallback(t *testing.T) {
	inst := registry.NewInstance(1, memcache.New(memcache.Config{}))
	origin := &countingAPI{API: inst}
	now := time.Now()
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	c := New(origin, Options{Now: clock})

	if _, err := inst.Put(ctx, entry("t", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	if got := origin.gets.Load(); got != 1 {
		t.Fatalf("%d origin gets before TTL expiry; want 1", got)
	}
	// Cross the default max-staleness bound: the entry must be refetched.
	mu.Lock()
	now = now.Add(DefaultMaxStaleness + time.Millisecond)
	mu.Unlock()
	if _, err := c.Get(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	if got := origin.gets.Load(); got != 2 {
		t.Fatalf("%d origin gets after TTL expiry; want 2 (refetch)", got)
	}
}

func TestLRUEvictionBoundsOccupancy(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	c := New(inst, Options{Capacity: 32, Shards: 4})
	attach(t, c, src)

	for i := 0; i < 256; i++ {
		if _, err := inst.Put(ctx, entry(fmt.Sprintf("e/%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 256; i++ {
		if _, err := c.Get(ctx, fmt.Sprintf("e/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.CachedLen(); n > 32 {
		t.Fatalf("cache holds %d entries; capacity is 32", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
}

func TestGetManyMixesHitsAndFills(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	origin := &countingAPI{API: inst}
	c := New(origin, Options{})
	attach(t, c, src)

	for i := 0; i < 4; i++ {
		if _, err := inst.Put(ctx, entry(fmt.Sprintf("gm/%d", i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Prime two of them (plus one negative).
	if _, err := c.Get(ctx, "gm/0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "gm/1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "gm/absent"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatal("want not-found")
	}

	names := []string{"gm/0", "gm/absent", "gm/1", "gm/2", "gm/none", "gm/3"}
	got, err := c.GetMany(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.GetMany(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("GetMany returned %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name || got[i].Size != want[i].Size {
			t.Fatalf("GetMany[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Everything is now cached: a repeat must not touch the origin.
	before := origin.gets.Load()
	if _, err := c.GetMany(ctx, names); err != nil {
		t.Fatal(err)
	}
	if origin.gets.Load() != before {
		t.Fatal("repeat GetMany reached the origin")
	}
}

// TestCacheOffEquivalence drives an identical seeded operation mix against a
// raw instance and a cache-wrapped twin; every result — values, errors,
// listing sizes — must match. This is the correctness-suite equivalence the
// issue requires.
func TestCacheOffEquivalence(t *testing.T) {
	raw := registry.NewInstance(1, memcache.New(memcache.Config{}))
	cachedInst, src := newFedInstance(t, 1)
	c := New(cachedInst, Options{})
	attach(t, c, src)

	rng := rand.New(rand.NewSource(7))
	key := func() string { return fmt.Sprintf("eq/%d", rng.Intn(32)) }
	for i := 0; i < 2000; i++ {
		name := key()
		switch rng.Intn(6) {
		case 0:
			a, aerr := raw.Put(ctx, entry(name, int64(i)))
			b, berr := c.Put(ctx, entry(name, int64(i)))
			checkSame(t, i, "Put", a, aerr, b, berr)
		case 1:
			aerr := raw.Delete(ctx, name)
			berr := c.Delete(ctx, name)
			checkSame(t, i, "Delete", registry.Entry{}, aerr, registry.Entry{}, berr)
		case 2:
			a, aerr := raw.Create(ctx, entry(name, int64(i)))
			b, berr := c.Create(ctx, entry(name, int64(i)))
			checkSame(t, i, "Create", a, aerr, b, berr)
		case 3:
			a, aerr := registry.Contains(ctx, raw, name)
			b, berr := registry.Contains(ctx, c, name)
			if a != b || aerr != nil || berr != nil {
				t.Fatalf("op %d: Contains(%q) differs: raw %v %v, cached %v %v", i, name, a, aerr, b, berr)
			}
		case 4:
			a, aerr := raw.AddLocation(ctx, name, registry.Location{Site: 2, Node: cloud.NodeID(i % 8)})
			b, berr := c.AddLocation(ctx, name, registry.Location{Site: 2, Node: cloud.NodeID(i % 8)})
			checkSame(t, i, "AddLocation", a, aerr, b, berr)
		default:
			a, aerr := raw.Get(ctx, name)
			b, berr := c.Get(ctx, name)
			checkSame(t, i, "Get", a, aerr, b, berr)
		}
	}
	a, aerr := registry.Len(ctx, raw)
	b, berr := registry.Len(ctx, c)
	if a != b || aerr != nil || berr != nil {
		t.Fatalf("Len differs: raw %d %v, cached %d %v", a, aerr, b, berr)
	}
}

// checkSame asserts two results agree on success/failure class and payload.
func checkSame(t *testing.T, i int, op string, a registry.Entry, aerr error, b registry.Entry, berr error) {
	t.Helper()
	if (aerr == nil) != (berr == nil) {
		t.Fatalf("op %d %s: error mismatch: raw %v, cached %v", i, op, aerr, berr)
	}
	if aerr != nil {
		for _, sentinel := range []error{registry.ErrNotFound, registry.ErrExists, registry.ErrConflict} {
			if errors.Is(aerr, sentinel) != errors.Is(berr, sentinel) {
				t.Fatalf("op %d %s: sentinel mismatch: raw %v, cached %v", i, op, aerr, berr)
			}
		}
		return
	}
	if a.Name != b.Name || a.Size != b.Size || len(a.Locations) != len(b.Locations) {
		t.Fatalf("op %d %s: entry mismatch: raw %+v, cached %+v", i, op, a, b)
	}
}

// TestRouterRebalanceSafety runs the cache over a replicated feeding Router
// while shards join and leave: after the feed drains, every key must read
// back its latest value through the cache.
func TestRouterRebalanceSafety(t *testing.T) {
	newShard := func(id cloud.SiteID) *registry.Instance {
		return registry.NewInstance(id, memcache.New(memcache.Config{}), registry.WithChangeFeed())
	}
	shards := []registry.API{newShard(1), newShard(2), newShard(3)}
	router, err := registry.NewRouter(1, shards,
		registry.WithRouterReplication(2),
		registry.WithRouterHealth(3, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	c := New(router, Options{})
	attach(t, c, feed.Source{
		Name: "tier",
		Subscribe: func(ctx context.Context, from uint64) (feed.Stream, error) {
			return router.ChangeFeed().Subscribe(from)
		},
		Snapshot: router.FeedSnapshot,
	})

	const keys = 64
	for i := 0; i < keys; i++ {
		if _, err := c.Put(ctx, entry(fmt.Sprintf("rb/%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		if _, err := c.Get(ctx, fmt.Sprintf("rb/%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	// Membership churn: add a shard and let its migration sweep finish (a
	// write racing the sweep can be clobbered — a router property, not a
	// cache one), overwrite everything through the router (bypassing the
	// cache's write-through), then remove the shard so the size-2 entries
	// migrate again.
	added := router.AddShard(newShard(4))
	router.Wait()
	for i := 0; i < keys; i++ {
		if _, err := router.Put(ctx, entry(fmt.Sprintf("rb/%d", i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := router.RemoveShard(added); err != nil {
		t.Fatal(err)
	}
	router.Wait()

	// Drain the relay feed up to a barrier, then wait for the cache to apply
	// it (the cursor advances when an event is handed to the combiner's
	// output buffer, the cache applies asynchronously): every key must
	// converge to its latest value — migration put/delete pairs included.
	head, err := router.FeedBarrier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "relay feed drained", func() bool { return c.combiner.Cursor("tier") >= head })
	waitFor(t, "cache converged on rebalanced values", func() bool {
		for i := 0; i < keys; i++ {
			e, err := c.Get(ctx, fmt.Sprintf("rb/%d", i))
			if err != nil || e.Size != 2 {
				return false
			}
		}
		return true
	})
}

// TestApplyModeInstallsEventEntries verifies the codec path: with a codec
// configured, a put event re-installs the entry instead of invalidating, so
// the next Get needs no origin round trip.
func TestApplyModeInstallsEventEntries(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	origin := &countingAPI{API: inst}
	c := New(origin, Options{Codec: registry.GobCodec{}})
	attach(t, c, src)

	if _, err := inst.Put(ctx, entry("ap", 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "event applied", func() bool {
		e, neg, ok := c.lookup("ap")
		return ok && !neg && e.Size == 1
	})
	if _, err := c.Get(ctx, "ap"); err != nil {
		t.Fatal(err)
	}
	if got := origin.gets.Load(); got != 0 {
		t.Fatalf("%d origin gets; want 0 (event should have installed the entry)", got)
	}
}

func TestCloseDetachesAndServesThrough(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	origin := &countingAPI{API: inst}
	c := New(origin, Options{})
	attach(t, c, src)

	if _, err := inst.Put(ctx, entry("cl", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "cl"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-close flush", func() bool { return c.serveThrough() })
	// Still correct, just uncached: every Get reaches the origin.
	before := origin.gets.Load()
	for i := 0; i < 3; i++ {
		if _, err := c.Get(ctx, "cl"); err != nil {
			t.Fatal(err)
		}
	}
	if got := origin.gets.Load() - before; got != 3 {
		t.Fatalf("%d origin gets after Close; want 3 (serve-through)", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}

func TestFeedSurfaceForwarding(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	c := New(inst, Options{})
	attach(t, c, src)
	if c.ChangeFeed() != inst.ChangeFeed() {
		t.Fatal("ChangeFeed not forwarded")
	}
	if _, err := c.FeedBarrier(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FeedSnapshot(ctx); err != nil {
		t.Fatal(err)
	}

	plain := New(registry.NewInstance(2, memcache.New(memcache.Config{})), Options{})
	if plain.ChangeFeed() != nil {
		t.Fatal("feedless origin must forward a nil feed")
	}
	if _, err := plain.FeedBarrier(ctx); err == nil {
		t.Fatal("want error from FeedBarrier on a feedless origin")
	}
	if _, _, err := plain.FeedSnapshot(ctx); err == nil {
		t.Fatal("want error from FeedSnapshot on a feedless origin")
	}
	if plain.Site() != 2 {
		t.Fatalf("Site() = %d, want 2", plain.Site())
	}
}

func TestPassThroughReads(t *testing.T) {
	inst, src := newFedInstance(t, 1)
	c := New(inst, Options{})
	attach(t, c, src)
	if _, err := c.Put(ctx, entry("p/1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(ctx, entry("p/2", 2)); err != nil {
		t.Fatal(err)
	}
	es, err := c.Entries(ctx)
	if err != nil || len(es) != 2 {
		t.Fatalf("Entries: %v %v", es, err)
	}
	if n, err := registry.Len(ctx, c); n != 2 || err != nil {
		t.Fatalf("Len: %d %v, want 2", n, err)
	}
}

func TestMetricsSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	inst, src := newFedInstance(t, 1)
	c := New(inst, Options{Metrics: reg})
	attach(t, c, src)
	if _, err := c.Put(ctx, entry("m", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("readcache_hits_total").Value() == 0 {
		t.Fatal("readcache_hits_total not reported")
	}
	if reg.Counter("readcache_misses_total").Value() == 0 {
		t.Fatal("readcache_misses_total not reported")
	}
	if reg.Counter("readcache_invalidations_total").Value() == 0 {
		t.Fatal("readcache_invalidations_total not reported")
	}
	if reg.Gauge("readcache_entries").Value() != int64(c.CachedLen()) {
		t.Fatal("readcache_entries gauge out of sync with occupancy")
	}
}

// heldOrigin counts origin Gets and, while hold is set, parks each Get after
// it read the origin — the fill has its answer but has not installed it.
type heldOrigin struct {
	registry.API
	gets atomic.Int64
	hold chan struct{}
	held chan struct{}
}

func (a *heldOrigin) Get(ctx context.Context, name string) (registry.Entry, error) {
	e, err := a.API.Get(ctx, name)
	a.gets.Add(1)
	if a.hold != nil {
		a.held <- struct{}{}
		<-a.hold
	}
	return e, err
}

// manualFeed attaches the cache to a feed whose events the test hands over
// one at a time, and taps inst's own feed for them: deliver forwards the
// instance's next event and returns once the cache applied it.
func manualFeed(t *testing.T, c *Cache, inst *registry.Instance) (deliver func()) {
	t.Helper()
	events := make(chan feed.Event)
	attach(t, c, feed.Source{
		Name: "manual",
		Subscribe: func(context.Context, uint64) (feed.Stream, error) {
			return &droppableStream{ch: events}, nil
		},
	})
	tap, err := inst.ChangeFeed().Subscribe(inst.ChangeFeed().Seq())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tap.Close)
	return func() {
		t.Helper()
		select {
		case ev := <-tap.Events():
			events <- ev
		case <-time.After(5 * time.Second):
			t.Fatal("origin published no feed event")
		}
		// Events apply in order: once a delete of an unrelated key is
		// applied, so is the forwarded event.
		inv := c.Stats().Invalidations
		events <- feed.Event{Op: feed.OpDelete, Name: "unrelated"}
		waitFor(t, "feed events applied", func() bool { return c.Stats().Invalidations > inv })
	}
}

// TestLateFeedEventKeepsWriteThenReadFill pins version-aware invalidation:
// the feed event of a write the cache made itself reaches the cache after
// the write-then-read re-filled the entry, or while that fill is in flight.
// It carries no newer version, so it must not throw the fill away, and each
// write-then-read costs exactly one origin Get.
func TestLateFeedEventKeepsWriteThenReadFill(t *testing.T) {
	inst, _ := newFedInstance(t, 1)
	origin := &heldOrigin{API: inst}
	c := New(origin, Options{})
	deliver := manualFeed(t, c, inst)

	if _, err := c.Put(ctx, entry("k", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	deliver()
	for i := 0; i < 2; i++ {
		if e, err := c.Get(ctx, "k"); err != nil || e.Size != 1 {
			t.Fatalf("Get = %+v, %v", e, err)
		}
	}
	if got := origin.gets.Load(); got != 1 {
		t.Fatalf("%d origin Gets, want 1", got)
	}

	// The late event lands while the fill is still in flight: the fill read
	// the event's version, so it installs despite the event's newer fence.
	if _, err := c.AddLocation(ctx, "k", registry.Location{Site: 2, Node: 2}); err != nil {
		t.Fatal(err)
	}
	origin.hold, origin.held = make(chan struct{}), make(chan struct{})
	filled := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, "k")
		filled <- err
	}()
	<-origin.held
	deliver()
	close(origin.hold)
	if err := <-filled; err != nil {
		t.Fatal(err)
	}
	origin.hold = nil
	if e, err := c.Get(ctx, "k"); err != nil || len(e.Locations) != 2 {
		t.Fatalf("Get = %+v, %v; want the AddLocation result", e, err)
	}
	if got := origin.gets.Load(); got != 2 {
		t.Fatalf("%d origin Gets, want 2", got)
	}

	// A newer write still evicts the entry.
	if _, err := inst.Put(ctx, entry("k", 2)); err != nil {
		t.Fatal(err)
	}
	deliver()
	if e, err := c.Get(ctx, "k"); err != nil || e.Size != 2 {
		t.Fatalf("Get after a newer write = %+v, %v; want size 2", e, err)
	}
}

// TestFillAcrossDeleteAndRecreateIsRejected pins that versions never let an
// old fill past the fence: a fill reads a key at version 3 and stalls, the
// key is deleted and created again (its versions restart at 1), and the
// stale fill must not install. The re-created key's later writes must
// evict whatever the cache holds.
func TestFillAcrossDeleteAndRecreateIsRejected(t *testing.T) {
	inst, _ := newFedInstance(t, 1)
	origin := &heldOrigin{API: inst}
	c := New(origin, Options{})
	deliver := manualFeed(t, c, inst)

	for size := int64(1); size <= 3; size++ {
		if _, err := inst.Put(ctx, entry("k", size)); err != nil {
			t.Fatal(err)
		}
		deliver()
	}
	origin.hold, origin.held = make(chan struct{}), make(chan struct{})
	filled := make(chan error, 1)
	go func() {
		e, err := c.Get(ctx, "k")
		if err == nil && (e.Size != 3 || e.Version != 3) {
			err = fmt.Errorf("stalled fill read %+v, want size 3 at version 3", e)
		}
		filled <- err
	}()
	<-origin.held
	if err := inst.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	deliver()
	if _, err := inst.Create(ctx, entry("k", 10)); err != nil {
		t.Fatal(err)
	}
	deliver()
	close(origin.hold)
	if err := <-filled; err != nil {
		t.Fatal(err)
	}
	origin.hold = nil

	for size := int64(10); size <= 12; size++ {
		if size > 10 {
			if _, err := inst.Put(ctx, entry("k", size)); err != nil {
				t.Fatal(err)
			}
			deliver()
		}
		if e, err := c.Get(ctx, "k"); err != nil || e.Size != size {
			t.Fatalf("Get = %+v, %v; want the re-created entry at size %d", e, err, size)
		}
	}
}

// TestReplicaBehindDoesNotPinStaleEntry pins the replicated tier: each
// replica numbers versions on its own, so a write committed by replicas
// that missed an earlier write carries a version no newer than the one the
// cache read from the replica that did not miss it. The cache must still
// drop its entry and serve the new write.
func TestReplicaBehindDoesNotPinStaleEntry(t *testing.T) {
	insts := make([]*registry.Instance, 3)
	shards := make([]registry.API, 3)
	for i := range insts {
		insts[i] = registry.NewInstance(cloud.SiteID(i+1), memcache.New(memcache.Config{}), registry.WithChangeFeed())
		shards[i] = insts[i]
	}
	router, err := registry.NewRouter(1, shards, registry.WithRouterReplication(3))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	c := New(router, Options{})
	attach(t, c, feed.Source{
		Name: "tier",
		Subscribe: func(ctx context.Context, from uint64) (feed.Stream, error) {
			return router.ChangeFeed().Subscribe(from)
		},
		Snapshot: router.FeedSnapshot,
	})
	drain := func() {
		t.Helper()
		head, err := router.FeedBarrier(ctx)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "relay feed drained", func() bool { return c.combiner.Cursor("tier") >= head })
	}

	if _, err := c.Put(ctx, entry("k", 1)); err != nil {
		t.Fatal(err)
	}
	// Only the primary takes the second write: it reaches version 2 while
	// the other replicas stay at 1.
	home := router.Home("k")
	if _, err := insts[home].Put(ctx, entry("k", 2)); err != nil {
		t.Fatal(err)
	}
	drain()
	waitFor(t, "cache filled from the primary", func() bool {
		e, err := c.Get(ctx, "k")
		return err == nil && e.Size == 2
	})

	// The primary goes down and misses the third write, which the lagging
	// replicas commit at version 2.
	router.MarkShardDown(home)
	for id, inst := range insts {
		if cloud.SiteID(id) != home {
			if e, err := inst.Put(ctx, entry("k", 3)); err != nil || e.Version != 2 {
				t.Fatalf("replica %d Put = %+v, %v; want version 2", id, e, err)
			}
		}
	}
	drain()
	waitFor(t, "cache serves the write the primary missed", func() bool {
		e, err := c.Get(ctx, "k")
		return err == nil && e.Size == 3
	})
}

// TestInvalidationBelowEvictionFloorRemovesEntry pins the eviction-floor
// race: an invalidation whose fence was drawn before an eviction raised the
// shard floor above it must still remove the entry it invalidates.
func TestInvalidationBelowEvictionFloorRemovesEntry(t *testing.T) {
	c := New(registry.NewInstance(1, memcache.New(memcache.Config{})), Options{Capacity: 2, Shards: 1, MaxStaleness: -1})
	c.install("victim", kindPositive, entry("victim", 1), 20)
	c.install("k", kindPositive, entry("k", 1), 2)
	c.install("newcomer", kindPositive, entry("newcomer", 1), 21) // evicts victim: floor 20
	if _, _, ok := c.lookup("k"); !ok {
		t.Fatal("setup: k was evicted")
	}
	c.install("k", kindTombstone, registry.Entry{}, 10)
	if _, _, ok := c.lookup("k"); ok {
		t.Fatal("k still served after an invalidation below the eviction floor")
	}
	if got := c.Stats(); got.Entries != 1 || int64(got.Entries) != c.obs.entries.Value() {
		t.Fatalf("occupancy %d (gauge %d), want 1", got.Entries, c.obs.entries.Value())
	}
}

package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"geomds/internal/cloud"
	"geomds/internal/memcache"
)

// newShard returns one in-process shard instance backed by an unbounded,
// zero-service-time cache.
func newShard(site cloud.SiteID) *Instance {
	return NewInstance(site, memcache.New(memcache.Config{}))
}

// newTestRouter builds a router over n fresh in-process shards, returning the
// shard instances keyed by the IDs the router assigned.
func newTestRouter(t *testing.T, n int, opts ...RouterOption) (*Router, map[cloud.SiteID]*Instance) {
	t.Helper()
	insts := make([]*Instance, n)
	apis := make([]API, n)
	for i := range insts {
		insts[i] = newShard(7)
		apis[i] = insts[i]
	}
	r, err := NewRouter(7, apis, opts...)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[cloud.SiteID]*Instance, n)
	for i, inst := range insts {
		byID[cloud.SiteID(i)] = inst
	}
	return r, byID
}

func testEntry(name string) Entry {
	return NewEntry(name, 1024, "router-test", Location{Site: 7, Node: 1})
}

func TestRouterSingleKeyOpsLandOnHomeShard(t *testing.T) {
	ctx := context.Background()
	r, shards := newTestRouter(t, 4)

	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("router/key/%d", i)
		if _, err := r.Create(ctx, testEntry(name)); err != nil {
			t.Fatalf("create %q: %v", name, err)
		}
		home := r.Home(name)
		for id, inst := range shards {
			has := mustContain(t, inst, name)
			if id == home && !has {
				t.Fatalf("entry %q missing from its home shard %d", name, id)
			}
			if id != home && has {
				t.Fatalf("entry %q leaked onto shard %d (home is %d)", name, id, home)
			}
		}
		got, err := r.Get(ctx, name)
		if err != nil || got.Name != name {
			t.Fatalf("get %q: %v (got %q)", name, err, got.Name)
		}
	}

	// Duplicate create must fail through the router exactly as on an instance.
	if _, err := r.Create(ctx, testEntry("router/key/0")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: want ErrExists, got %v", err)
	}

	// Update and delete route to the same shard.
	if _, err := r.AddLocation(ctx, "router/key/1", Location{Site: 2, Node: 9}); err != nil {
		t.Fatalf("addlocation: %v", err)
	}
	e, err := r.Get(ctx, "router/key/1")
	if err != nil || len(e.Locations) != 2 {
		t.Fatalf("get after addlocation: %v (locations %v)", err, e.Locations)
	}
	if err := r.Delete(ctx, "router/key/1"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := r.Get(ctx, "router/key/1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: want ErrNotFound, got %v", err)
	}
}

// countingShard records how many times each bulk method is invoked, so the
// tests can prove the router issues at most one sub-batch per shard per call
// and never falls back to per-key operations.
type countingShard struct {
	API
	mu    sync.Mutex
	calls map[string]int
}

func newCountingShard(inner API) *countingShard {
	return &countingShard{API: inner, calls: make(map[string]int)}
}

func (c *countingShard) count(m string) {
	c.mu.Lock()
	c.calls[m]++
	c.mu.Unlock()
}

func (c *countingShard) Calls(m string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[m]
}

func (c *countingShard) Get(ctx context.Context, name string) (Entry, error) {
	c.count("Get")
	return c.API.Get(ctx, name)
}

func (c *countingShard) Put(ctx context.Context, e Entry) (Entry, error) {
	c.count("Put")
	return c.API.Put(ctx, e)
}

func (c *countingShard) Delete(ctx context.Context, name string) error {
	c.count("Delete")
	return c.API.Delete(ctx, name)
}

func (c *countingShard) GetMany(ctx context.Context, names []string) ([]Entry, error) {
	c.count("GetMany")
	return c.API.GetMany(ctx, names)
}

func (c *countingShard) PutMany(ctx context.Context, entries []Entry) ([]Entry, error) {
	c.count("PutMany")
	return c.API.PutMany(ctx, entries)
}

func (c *countingShard) DeleteMany(ctx context.Context, names []string) (int, error) {
	c.count("DeleteMany")
	return c.API.DeleteMany(ctx, names)
}

func (c *countingShard) Merge(ctx context.Context, entries []Entry) (int, error) {
	c.count("Merge")
	return c.API.Merge(ctx, entries)
}

// TestRouterBulkOpsIssueOneSubBatchPerShard is the acceptance test for the
// routing tier's batching contract: a bulk call over N shards costs at most
// one sub-batch per shard — never one call per key.
func TestRouterBulkOpsIssueOneSubBatchPerShard(t *testing.T) {
	ctx := context.Background()
	const nShards = 4
	counters := make([]*countingShard, nShards)
	apis := make([]API, nShards)
	for i := range counters {
		counters[i] = newCountingShard(newShard(7))
		apis[i] = counters[i]
	}
	r, err := NewRouter(7, apis)
	if err != nil {
		t.Fatal(err)
	}

	const n = 256
	entries := make([]Entry, n)
	names := make([]string, n)
	for i := range entries {
		names[i] = fmt.Sprintf("bulk/%d", i)
		entries[i] = testEntry(names[i])
	}

	stored, err := r.PutMany(ctx, entries)
	if err != nil {
		t.Fatalf("put-many: %v", err)
	}
	if len(stored) != n {
		t.Fatalf("put-many returned %d entries, want %d", len(stored), n)
	}
	for i, e := range stored {
		if e.Name != names[i] {
			t.Fatalf("put-many result out of order at %d: got %q want %q", i, e.Name, names[i])
		}
		if e.Version == 0 {
			t.Fatalf("put-many result %q missing stored version", e.Name)
		}
	}

	got, err := r.GetMany(ctx, names)
	if err != nil {
		t.Fatalf("get-many: %v", err)
	}
	if len(got) != n {
		t.Fatalf("get-many returned %d entries, want %d", len(got), n)
	}
	for i, e := range got {
		if e.Name != names[i] {
			t.Fatalf("get-many result out of order at %d: got %q want %q", i, e.Name, names[i])
		}
	}

	if _, err := r.Merge(ctx, entries); err != nil {
		t.Fatalf("merge: %v", err)
	}
	deleted, err := r.DeleteMany(ctx, names)
	if err != nil {
		t.Fatalf("delete-many: %v", err)
	}
	if deleted != n {
		t.Fatalf("delete-many removed %d, want %d", deleted, n)
	}

	for i, c := range counters {
		for _, bulk := range []string{"PutMany", "GetMany", "Merge", "DeleteMany"} {
			if calls := c.Calls(bulk); calls > 1 {
				t.Errorf("shard %d: %s called %d times for one routed call, want at most 1", i, bulk, calls)
			}
		}
		for _, single := range []string{"Get", "Put", "Delete"} {
			if calls := c.Calls(single); calls != 0 {
				t.Errorf("shard %d: bulk ops fell back to %d per-key %s calls", i, calls, single)
			}
		}
	}
	// With 256 keys over 4 shards every shard must have seen its sub-batch.
	for i, c := range counters {
		if c.Calls("PutMany") == 0 {
			t.Errorf("shard %d received no sub-batch; placement is degenerate", i)
		}
	}
}

// failingShard answers every operation with a transport-style failure
// wrapping ErrUnavailable, like an rpc.Client whose server is gone.
type failingShard struct{ API }

var errShardDown = fmt.Errorf("shard down: %w", ErrUnavailable)

func (f failingShard) GetMany(context.Context, []string) ([]Entry, error) { return nil, errShardDown }
func (f failingShard) PutMany(context.Context, []Entry) ([]Entry, error)  { return nil, errShardDown }
func (f failingShard) DeleteMany(context.Context, []string) (int, error)  { return 0, errShardDown }
func (f failingShard) Merge(context.Context, []Entry) (int, error)        { return 0, errShardDown }
func (f failingShard) Entries(context.Context) ([]Entry, error)           { return nil, errShardDown }
func (f failingShard) Create(context.Context, Entry) (Entry, error)       { return Entry{}, errShardDown }
func (f failingShard) Get(context.Context, string) (Entry, error)         { return Entry{}, errShardDown }

func TestRouterPartialFailureWrapsUnavailable(t *testing.T) {
	ctx := context.Background()
	healthy := []*Instance{newShard(7), newShard(7), newShard(7)}
	apis := []API{healthy[0], healthy[1], healthy[2], failingShard{API: newShard(7)}}
	r, err := NewRouter(7, apis)
	if err != nil {
		t.Fatal(err)
	}

	const n = 128
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = testEntry(fmt.Sprintf("partial/%d", i))
	}
	_, err = r.PutMany(ctx, entries)
	if err == nil {
		t.Fatal("put-many with a dead shard: want error, got nil")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("put-many error should wrap ErrUnavailable, got %v", err)
	}

	// The healthy shards' sub-batches stayed applied: every entry not homed
	// on the dead shard is present.
	applied := 0
	for _, inst := range healthy {
		applied += mustLen(t, inst)
	}
	if applied == 0 {
		t.Fatal("partial failure should leave healthy shards' sub-batches applied")
	}

	// Single-key ops routed to the dead shard report the transport failure
	// unchanged.
	var deadName string
	for i := 0; i < 4*n; i++ {
		name := fmt.Sprintf("probe/%d", i)
		if r.Home(name) == 3 {
			deadName = name
			break
		}
	}
	if deadName == "" {
		t.Fatal("no probe name hashed to the dead shard")
	}
	if _, err := r.Get(ctx, deadName); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("get via dead shard: want ErrUnavailable, got %v", err)
	}
}

func TestRouterMembershipChangeMigratesEntries(t *testing.T) {
	ctx := context.Background()
	r, shards := newTestRouter(t, 2)

	const n = 500
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("member/%d", i)
		if _, err := r.Create(ctx, testEntry(names[i])); err != nil {
			t.Fatal(err)
		}
	}

	// A third shard joins; the background sweep moves the keys the ring now
	// assigns to it.
	third := newShard(7)
	id := r.AddShard(third)
	r.Wait()
	shards[id] = third

	if got := r.ShardCount(); got != 3 {
		t.Fatalf("shard count after join: got %d, want 3", got)
	}
	if mustLen(t, r) != n {
		t.Fatalf("tier size after join: got %d, want %d", mustLen(t, r), n)
	}
	misplaced := 0
	for _, name := range names {
		home := r.Home(name)
		for sid, inst := range shards {
			if mustContain(t, inst, name) != (sid == home) {
				misplaced++
				break
			}
		}
		if _, err := r.Get(ctx, name); err != nil {
			t.Fatalf("get %q after join: %v", name, err)
		}
	}
	if misplaced != 0 {
		t.Fatalf("%d entries not at their home shard after the join sweep", misplaced)
	}
	// Consistent hashing: the join moved roughly 1/3 of the keys, not all.
	if moved := mustLen(t, third); moved == 0 || moved > (2*n)/3 {
		t.Fatalf("join moved %d of %d keys; consistent hashing should move about 1/3", moved, n)
	}

	// The new shard leaves again; its entries drain back and it is detached.
	if err := r.RemoveShard(id); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if got := r.ShardCount(); got != 2 {
		t.Fatalf("shard count after leave: got %d, want 2", got)
	}
	if mustLen(t, third) != 0 {
		t.Fatalf("removed shard still holds %d entries after drain", mustLen(t, third))
	}
	if mustLen(t, r) != n {
		t.Fatalf("tier size after leave: got %d, want %d", mustLen(t, r), n)
	}
	for _, name := range names {
		if _, err := r.Get(ctx, name); err != nil {
			t.Fatalf("get %q after leave: %v", name, err)
		}
	}

	// Removing the last shards must be refused.
	if err := r.RemoveShard(r.Shards()[0]); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if err := r.RemoveShard(r.Shards()[0]); err == nil {
		t.Fatal("removing the last shard should fail")
	}
}

// mergeGate wraps a shard and blocks the first Merge call until released,
// so tests can freeze a migration sweep at the moment it is about to apply
// a moved batch.
type mergeGate struct {
	API
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newMergeGate(inner API) *mergeGate {
	return &mergeGate{API: inner, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *mergeGate) Merge(ctx context.Context, entries []Entry) (int, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.API.Merge(ctx, entries)
}

// entriesGate wraps a shard and blocks the first Entries call until
// released, freezing a sweep before it has read the source shard.
type entriesGate struct {
	API
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newEntriesGate(inner API) *entriesGate {
	return &entriesGate{API: inner, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *entriesGate) Entries(ctx context.Context) ([]Entry, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.API.Entries(ctx)
}

// TestRouterDeleteDuringSweepNotResurrected freezes a migration sweep right
// before it merges a moved batch into the new shard, deletes one of the
// moved entries through the router, and checks the sweep's post-merge check
// undoes the resurrection: the deletion must stick everywhere.
func TestRouterDeleteDuringSweepNotResurrected(t *testing.T) {
	ctx := context.Background()
	first := newShard(7)
	r, err := NewRouter(7, []API{first})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("resurrect/%d", i)
		if _, err := r.Create(ctx, testEntry(names[i])); err != nil {
			t.Fatal(err)
		}
	}

	second := newShard(7)
	gate := newMergeGate(second)
	id := r.AddShard(gate)
	<-gate.entered // the sweep has read shard 0 and is about to merge into the joiner

	// Pick an entry that is moving to the new shard and delete it while the
	// stale copy is in the sweep's hands.
	var victim string
	for _, name := range names {
		if r.Home(name) == id {
			victim = name
			break
		}
	}
	if victim == "" {
		t.Fatal("no entry moved to the joining shard")
	}
	if err := r.Delete(ctx, victim); err != nil {
		t.Fatalf("delete during sweep: %v", err)
	}

	close(gate.release)
	r.Wait()

	if _, err := r.Get(ctx, victim); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted entry came back after the sweep: %v", err)
	}
	if mustContain(t, second, victim) || mustContain(t, first, victim) {
		t.Fatal("a shard still holds the entry deleted during the sweep")
	}
	// Everything else migrated and survived.
	if got := mustLen(t, r); got != n-1 {
		t.Fatalf("tier holds %d entries after the sweep, want %d", got, n-1)
	}
}

// TestRouterRecreateAfterDeleteDuringSweepSurvives deletes a mid-migration
// entry and immediately re-creates it while the sweep is frozen before its
// merge: the fresh entry must survive the sweep's anti-resurrection check —
// an acknowledged Create is never silently undone.
func TestRouterRecreateAfterDeleteDuringSweepSurvives(t *testing.T) {
	ctx := context.Background()
	first := newShard(7)
	r, err := NewRouter(7, []API{first})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("recreate/%d", i)
		if _, err := r.Create(ctx, testEntry(names[i])); err != nil {
			t.Fatal(err)
		}
	}

	gate := newMergeGate(newShard(7))
	id := r.AddShard(gate)
	<-gate.entered

	var victim string
	for _, name := range names {
		if r.Home(name) == id {
			victim = name
			break
		}
	}
	if victim == "" {
		t.Fatal("no entry moved to the joining shard")
	}
	if err := r.Delete(ctx, victim); err != nil {
		t.Fatalf("delete during sweep: %v", err)
	}
	if _, err := r.Create(ctx, testEntry(victim)); err != nil {
		t.Fatalf("re-create during sweep: %v", err)
	}

	close(gate.release)
	r.Wait()

	if _, err := r.Get(ctx, victim); err != nil {
		t.Fatalf("re-created entry was lost after the sweep: %v", err)
	}
	if got := mustLen(t, r); got != n {
		t.Fatalf("tier holds %d entries after the sweep, want %d", got, n)
	}
}

// TestRouterGetFallsBackDuringSweep freezes a sweep before it has read the
// old shard and checks that reads of not-yet-migrated entries succeed via
// the fallback instead of reporting ErrNotFound from the new home.
func TestRouterGetFallsBackDuringSweep(t *testing.T) {
	ctx := context.Background()
	gate := newEntriesGate(newShard(7))
	r, err := NewRouter(7, []API{gate})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("fallback/%d", i)
		if _, err := r.Create(ctx, testEntry(names[i])); err != nil {
			t.Fatal(err)
		}
	}

	id := r.AddShard(newShard(7))
	<-gate.entered // the sweep is frozen; nothing has migrated yet

	var moved string
	for _, name := range names {
		if r.Home(name) == id {
			moved = name
			break
		}
	}
	if moved == "" {
		t.Fatal("no entry is due to move to the joining shard")
	}
	if _, err := r.Get(ctx, moved); err != nil {
		t.Fatalf("get of a not-yet-migrated entry during the sweep: %v", err)
	}
	if !mustContain(t, r, moved) {
		t.Fatal("contains of a not-yet-migrated entry during the sweep: got false")
	}
	// Bulk reads fall back the same way: no entry may be silently dropped.
	got, err := r.GetMany(ctx, names)
	if err != nil {
		t.Fatalf("get-many during the sweep: %v", err)
	}
	if len(got) != n {
		t.Fatalf("get-many during the sweep returned %d of %d entries", len(got), n)
	}

	close(gate.release)
	r.Wait()
	if _, err := r.Get(ctx, moved); err != nil {
		t.Fatalf("get after the sweep: %v", err)
	}
}

// TestRouterHelpersSurfaceCancellation asserts that Contains and Len over a
// router return the caller's cancellation instead of reading it as
// "absent" or "empty".
func TestRouterHelpersSurfaceCancellation(t *testing.T) {
	r, _ := newTestRouter(t, 2)
	if _, err := r.Create(context.Background(), testEntry("present")); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if ok, err := Contains(cancelled, r, "present"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Contains on a cancelled context = %v, %v; want context.Canceled", ok, err)
	}
	if n, err := Len(cancelled, r); !errors.Is(err, context.Canceled) {
		t.Fatalf("Len on a cancelled context = %d, %v; want context.Canceled", n, err)
	}
}

func TestRouterEntriesAndNamesUnionShards(t *testing.T) {
	ctx := context.Background()
	r, _ := newTestRouter(t, 3)
	const n = 100
	want := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("union/%d", i)
		want[name] = true
		if _, err := r.Create(ctx, testEntry(name)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := r.Entries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n {
		t.Fatalf("entries: got %d, want %d", len(entries), n)
	}
	for _, e := range entries {
		if !want[e.Name] {
			t.Fatalf("unexpected name %q", e.Name)
		}
	}
	if mustLen(t, r) != n {
		t.Fatalf("len: got %d, want %d", mustLen(t, r), n)
	}
}

// strandedShard is a shard that gains a straggler entry right after a drain
// sweep's cleanup (a write through some other router) and then stops
// answering full-tier reads, so the emptiness check that follows fails.
type strandedShard struct {
	*Instance
	struck, down atomic.Bool
}

func (s *strandedShard) DeleteMany(ctx context.Context, names []string) (int, error) {
	n, err := s.Instance.DeleteMany(ctx, names)
	if err == nil && s.struck.CompareAndSwap(false, true) {
		if _, perr := s.Instance.Put(ctx, testEntry("straggler")); perr != nil {
			return n, perr
		}
		s.down.Store(true)
	}
	return n, err
}

func (s *strandedShard) Entries(ctx context.Context) ([]Entry, error) {
	if s.down.Load() {
		return nil, fmt.Errorf("stranded shard: %w", ErrUnavailable)
	}
	return s.Instance.Entries(ctx)
}

// TestRouterKeepsDrainedShardWhoseEmptinessCheckFails asserts that a drained
// shard is detached only on proof that it is empty: when the check fails,
// the shard stays in the tier (its straggler is not lost) and a later clean
// sweep migrates the straggler and detaches it.
func TestRouterKeepsDrainedShardWhoseEmptinessCheckFails(t *testing.T) {
	ctx := context.Background()
	r, _ := newTestRouter(t, 2)
	stranded := &strandedShard{Instance: newShard(7)}
	id := r.AddShard(stranded)
	r.Wait()
	for i := 0; i < 60; i++ {
		if _, err := r.Create(ctx, testEntry(fmt.Sprintf("drain/%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := mustLen(t, stranded.Instance); n == 0 {
		t.Fatal("no entries landed on the shard about to be removed")
	}

	if err := r.RemoveShard(id); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if _, attached := r.snapshotShards()[id]; !attached {
		t.Fatal("drained shard detached although its emptiness check failed")
	}
	if n := mustLen(t, stranded.Instance); n != 1 {
		t.Fatalf("stranded shard holds %d entries, want the straggler only", n)
	}

	stranded.down.Store(false)
	if _, err := r.Rebalance(ctx); err != nil {
		t.Fatalf("rebalance after recovery: %v", err)
	}
	if _, attached := r.snapshotShards()[id]; attached {
		t.Fatal("drained shard still attached after a clean sweep")
	}
	if _, err := r.Get(ctx, "straggler"); err != nil {
		t.Fatalf("straggler lost: %v", err)
	}
	if n := mustLen(t, r); n != 61 {
		t.Fatalf("tier holds %d entries, want 61", n)
	}
}

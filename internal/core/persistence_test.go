package core

import (
	"errors"
	"fmt"
	"testing"

	"geomds/internal/store"
)

// TestFabricShardPersistence pins the fabric-level durability contract: a
// fabric built with WithShardPersistence recovers every site's entries —
// across a sharded tier — after Close and rebuild over the same directory,
// even under the relaxed fsync policy (Close must flush).
func TestFabricShardPersistence(t *testing.T) {
	dir := t.TempDir()
	persist := []FabricOption{
		WithShardPersistence(dir, store.WithFsync(store.FsyncNever)),
		WithShardsPerSite(2),
		WithMetricsRegistry(nil),
	}

	fabric := newTestFabric(persist...)
	site := fabric.Sites()[0]
	inst, err := fabric.Instance(site)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := inst.Create(tctx, testEntry(fmt.Sprintf("f/%d", i), site)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fabric.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	revived := newTestFabric(persist...)
	defer revived.Close()
	inst, err = revived.Instance(site)
	if err != nil {
		t.Fatal(err)
	}
	if n := entryCount(t, inst); n != 20 {
		t.Errorf("recovered site holds %d entries, want 20", n)
	}
	for i := 0; i < 20; i++ {
		if _, err := inst.Get(tctx, fmt.Sprintf("f/%d", i)); err != nil {
			t.Errorf("f/%d not recovered: %v", i, err)
		}
	}
	// Other sites recovered empty (their directories exist but hold nothing).
	other := revived.Sites()[1]
	oinst, err := revived.Instance(other)
	if err != nil {
		t.Fatal(err)
	}
	if n := entryCount(t, oinst); n != 0 {
		t.Errorf("untouched site recovered %d entries, want 0", n)
	}
}

func TestFabricCloseRejectsFurtherWrites(t *testing.T) {
	fabric := newTestFabric(WithShardPersistence(t.TempDir()), WithMetricsRegistry(nil))
	site := fabric.Sites()[0]
	inst, err := fabric.Instance(site)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Create(tctx, testEntry("f/0", site)); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Create(tctx, testEntry("f/1", site)); !errors.Is(err, store.ErrClosed) {
		t.Errorf("Create after fabric Close = %v, want store.ErrClosed", err)
	}
	// A memory-only fabric closes trivially.
	if err := newTestFabric().Close(); err != nil {
		t.Errorf("memory-only Close: %v", err)
	}
}

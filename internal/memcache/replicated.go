package memcache

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// HACache provides the high-availability behaviour of the managed cache tier
// described in the paper: a primary cache and a replica cache; when the
// primary fails the replica is promoted and a fresh replica is created and
// repopulated in the background.
//
// Reads and writes always go to the current primary; every successful write
// is mirrored synchronously to the replica so the replica can take over
// without losing acknowledged entries. A mirror write that fails (replica at
// capacity, stopped) does not fail the caller's write — the primary accepted
// it — but it does mean the replica has silently diverged and a failover
// would lose the entry; MirrorFailures counts those events so operators and
// tests can detect the divergence instead of discovering it after a
// promotion.
type HACache struct {
	mu       sync.RWMutex
	primary  *Cache
	replica  *Cache
	factory  func() *Cache
	failures int
	// mirrorFailures counts writes the primary accepted but the replica
	// rejected — acknowledged entries a failover would lose.
	mirrorFailures atomic.Uint64
}

// NewHA wraps a primary/replica pair built by factory. The factory is also
// used to create fresh replicas after a failover.
func NewHA(factory func() *Cache) *HACache {
	return &HACache{
		primary: factory(),
		replica: factory(),
		factory: factory,
	}
}

// Primary returns the current primary cache instance.
func (h *HACache) Primary() *Cache {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.primary
}

// Failures returns how many failovers have occurred.
func (h *HACache) Failures() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.failures
}

// MirrorFailures returns how many acknowledged writes the replica failed to
// mirror. A non-zero count means the replica has diverged from the primary
// and a failover would lose those entries.
func (h *HACache) MirrorFailures() uint64 { return h.mirrorFailures.Load() }

// mirror applies one replica write outcome: a failed mirror is counted, not
// surfaced — the primary accepted the write, so the caller's operation
// succeeded — and the counter is how the divergence stays observable.
func (h *HACache) mirror(err error) {
	if err != nil {
		h.mirrorFailures.Add(1)
	}
}

// Get reads from the primary.
func (h *HACache) Get(key string) (Item, error) {
	return h.Primary().Get(key)
}

// Put writes to the primary and mirrors the value to the replica.
func (h *HACache) Put(key string, value []byte, ttl time.Duration) (Item, error) {
	h.mu.RLock()
	primary, replica := h.primary, h.replica
	h.mu.RUnlock()
	it, err := primary.Put(key, value, ttl)
	if err != nil {
		return it, err
	}
	// The replica mirrors values but keeps its own version counter; entries
	// are re-versioned on promotion, which is safe because registry entries
	// are written once (paper §III-B).
	_, merr := replica.Put(key, value, ttl)
	h.mirror(merr)
	return it, nil
}

// CAS performs an optimistic-concurrency write on the primary, mirroring the
// result to the replica on success.
func (h *HACache) CAS(key string, value []byte, ttl time.Duration, expectedVersion uint64) (Item, error) {
	h.mu.RLock()
	primary, replica := h.primary, h.replica
	h.mu.RUnlock()
	it, err := primary.CAS(key, value, ttl, expectedVersion)
	if err != nil {
		return it, err
	}
	_, merr := replica.Put(key, value, ttl)
	h.mirror(merr)
	return it, nil
}

// Delete removes the key from both primary and replica.
func (h *HACache) Delete(key string) error {
	h.mu.RLock()
	primary, replica := h.primary, h.replica
	h.mu.RUnlock()
	err := primary.Delete(key)
	// A replica-side ErrNotFound is not divergence — the mirrored state is
	// identical ("already gone"); only count deletes the primary accepted.
	if merr := replica.Delete(key); merr != nil && err == nil && !errors.Is(merr, ErrNotFound) {
		h.mirrorFailures.Add(1)
	}
	return err
}

// Len returns the number of live entries in the primary.
func (h *HACache) Len() int { return h.Primary().Len() }

// Snapshot returns all live items of the primary.
func (h *HACache) Snapshot() []Item { return h.Primary().Snapshot() }

// Stats returns the primary's statistics.
func (h *HACache) Stats() Stats { return h.Primary().Stats() }

// FailPrimary simulates a failure of the primary instance: the replica is
// promoted to primary and a new, freshly populated replica is created, as
// described in §III-B of the paper. The failed instance is stopped.
func (h *HACache) FailPrimary() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failures++
	old := h.primary
	h.primary = h.replica
	old.Stop()
	// Create and repopulate a fresh replica from the promoted primary.
	h.replica = h.factory()
	for _, it := range h.primary.Snapshot() {
		ttl := time.Duration(0)
		if !it.Expires.IsZero() {
			// Preserve the remaining TTL approximately, against the cache's
			// own clock so fake-clock tests repopulate correctly.
			ttl = it.Expires.Sub(h.primary.cfg.Now())
			if ttl <= 0 {
				continue
			}
		}
		if _, err := h.replica.Put(it.Key, it.Value, ttl); err != nil {
			h.mirrorFailures.Add(1)
		}
	}
}

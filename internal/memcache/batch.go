package memcache

import "time"

// KV is one key/value pair of a bulk write.
type KV struct {
	// Key is the item's unique identifier.
	Key string
	// Value is the opaque payload.
	Value []byte
	// TTL is the item's time to live (0 = Config.DefaultTTL, or no expiry).
	TTL time.Duration
}

// GetBatch retrieves many keys in one server-side operation. It returns the
// found items and the keys that were absent (or expired). A batch costs one
// worker-slot acquisition plus an amortized per-item service time, which is
// what makes bulk transfers (synchronization agent rounds, lazy-propagation
// flushes) far cheaper than issuing the equivalent individual operations.
func (c *Cache) GetBatch(keys []string) (found []Item, missing []string, err error) {
	if err := c.enter(); err != nil {
		return nil, nil, err
	}
	defer c.leaveBatch(len(keys))

	now := c.cfg.Now()
	for _, key := range keys {
		c.countGet()
		sh := c.shardFor(key)
		sh.mu.RLock()
		it, ok := sh.items[key]
		sh.mu.RUnlock()
		if !ok || it.Expired(now) {
			if ok {
				c.removeExpired(key, it.Version)
			}
			c.countMiss()
			missing = append(missing, key)
			continue
		}
		c.countHit()
		found = append(found, it)
	}
	return found, missing, nil
}

// PutBatch stores many key/value pairs in one server-side operation,
// returning the stored items in input order. Like GetBatch it charges one
// slot acquisition plus an amortized per-item service time.
func (c *Cache) PutBatch(kvs []KV) ([]Item, error) {
	if err := c.enter(); err != nil {
		return nil, err
	}
	defer c.leaveBatch(len(kvs))

	out := make([]Item, 0, len(kvs))
	for _, kv := range kvs {
		c.puts.Add(1)
		it, err := c.store(kv.Key, kv.Value, kv.TTL, nil)
		if err != nil {
			return out, err
		}
		out = append(out, it)
	}
	return out, nil
}

// DeleteBatch removes many keys in one server-side operation, reporting for
// each key whether it was present (removed[i] for keys[i]). Absent keys are
// skipped rather than reported as errors: a bulk delete is the propagation
// of deletions that already succeeded somewhere else, so "already gone" is
// success.
func (c *Cache) DeleteBatch(keys []string) (removed []bool, err error) {
	if err := c.enter(); err != nil {
		return nil, err
	}
	defer c.leaveBatch(len(keys))

	removed = make([]bool, len(keys))
	for i, key := range keys {
		c.deletes.Add(1)
		sh := c.shardFor(key)
		sh.mu.Lock()
		it, ok := sh.items[key]
		if ok {
			delete(sh.items, key)
			c.addItems(-1)
			c.bytes.Add(-int64(len(it.Value)))
			removed[i] = true
		}
		sh.mu.Unlock()
	}
	return removed, nil
}

// leaveBatch releases the worker slot after charging the amortized service
// time of an n-item batch.
func (c *Cache) leaveBatch(n int) {
	if c.cfg.ServiceTime > 0 {
		d := c.cfg.ServiceTime + c.cfg.ServiceTime*time.Duration(n)/time.Duration(c.cfg.BatchFactor)
		c.cfg.Sleep(d)
	}
	if c.slots != nil {
		<-c.slots
	}
}

// GetBatch implements the bulk read on the highly-available pair by reading
// from the primary.
func (h *HACache) GetBatch(keys []string) ([]Item, []string, error) {
	return h.Primary().GetBatch(keys)
}

// PutBatch implements the bulk write on the highly-available pair, mirroring
// the values to the replica.
func (h *HACache) PutBatch(kvs []KV) ([]Item, error) {
	h.mu.RLock()
	primary, replica := h.primary, h.replica
	h.mu.RUnlock()
	items, err := primary.PutBatch(kvs)
	if err != nil {
		return items, err
	}
	_, merr := replica.PutBatch(kvs)
	h.mirror(merr)
	return items, nil
}

// DeleteBatch implements the bulk delete on the highly-available pair,
// mirroring the removals to the replica. It reports what the primary
// removed.
func (h *HACache) DeleteBatch(keys []string) ([]bool, error) {
	h.mu.RLock()
	primary, replica := h.primary, h.replica
	h.mu.RUnlock()
	removed, err := primary.DeleteBatch(keys)
	if err != nil {
		return removed, err
	}
	// DeleteBatch treats absent keys as success, so any replica error is
	// real divergence.
	_, merr := replica.DeleteBatch(keys)
	h.mirror(merr)
	return removed, nil
}

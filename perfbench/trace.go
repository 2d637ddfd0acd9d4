package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/feed"
	"geomds/internal/memcache"
	"geomds/internal/registry"
)

// A Span is one call into a layer, recorded from outside the layer by a
// decorator around its public functions.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Req is the benchmark request the span serves. Server-side spans carry
	// 0: no request ID travels in the wire frame yet, so they carry the key.
	Req   uint64 `json:"req,omitempty"`
	Name  string `json:"name"`
	Key   string `json:"key,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Err   bool   `json:"err,omitempty"`
}

// maxKeptSpans bounds the spans held for the span file; aggregates count
// every span whether kept or not.
const maxKeptSpans = 200_000

// Tracer collects spans in memory. A nil or disabled Tracer records nothing
// and costs the decorators one atomic load per call.
type Tracer struct {
	epoch   time.Time
	on      atomic.Bool
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []Span
	dropped int64
	layers  map[string]*layerAgg
}

// layerAgg aggregates every span of one name.
type layerAgg struct {
	calls, errs int64
	busy        time.Duration
	durs        []float64 // microseconds
}

// NewTracer returns a disabled tracer.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), layers: make(map[string]*layerAgg)}
}

// Enable turns recording on or off.
func (t *Tracer) Enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *Tracer) enabled() bool { return t != nil && t.on.Load() }

// spanRef is what a span leaves in its context for its children.
type spanRef struct{ id, req uint64 }

type spanCtxKey struct{}

// requestIDs numbers the benchmark's operations across phases.
var requestIDs atomic.Uint64

// withRequest tags ctx with a benchmark request ID, the root of that
// request's spans.
func withRequest(ctx context.Context, req uint64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanRef{req: req})
}

// newRequest tags ctx with the next request ID.
func newRequest(ctx context.Context) context.Context {
	return withRequest(ctx, requestIDs.Add(1))
}

// begin opens a span under the span (or request) found in ctx.
func (t *Tracer) begin(ctx context.Context, name, key string) (context.Context, Span) {
	var parent spanRef
	if ctx != nil {
		parent, _ = ctx.Value(spanCtxKey{}).(spanRef)
	}
	sp := Span{ID: t.nextID.Add(1), Parent: parent.id, Req: parent.req, Name: name, Key: key, Start: int64(time.Since(t.epoch))}
	if ctx != nil {
		ctx = context.WithValue(ctx, spanCtxKey{}, spanRef{id: sp.ID, req: parent.req})
	}
	return ctx, sp
}

// finish closes sp and records it.
func (t *Tracer) finish(sp Span, err error) {
	sp.End = int64(time.Since(t.epoch))
	sp.Err = err != nil
	d := time.Duration(sp.End - sp.Start)
	t.mu.Lock()
	a := t.layers[sp.Name]
	if a == nil {
		a = &layerAgg{}
		t.layers[sp.Name] = a
	}
	a.calls++
	a.busy += d
	a.durs = append(a.durs, us(d))
	if err != nil {
		a.errs++
	}
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// record runs fn inside a span when tracing is on, and returns fn's results
// unchanged either way.
func record[T any](t *Tracer, ctx context.Context, name, key string, fn func(context.Context) (T, error)) (T, error) {
	if !t.enabled() {
		return fn(ctx)
	}
	ctx, sp := t.begin(ctx, name, key)
	v, err := fn(ctx)
	t.finish(sp, err)
	return v, err
}

// LayerStat is a read-only copy of one span name's aggregate.
type LayerStat struct {
	Calls, Errs int64
	Busy        time.Duration
	Durs        dist // microseconds
}

// Layer returns the aggregate of every span whose name is one of names.
func (t *Tracer) Layer(names ...string) LayerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out LayerStat
	var durs []float64
	for _, n := range names {
		if a := t.layers[n]; a != nil {
			out.Calls += a.calls
			out.Errs += a.errs
			out.Busy += a.busy
			durs = append(durs, a.durs...)
		}
	}
	out.Durs = newDist(durs)
	return out
}

// LayerPrefix returns the aggregate of every span whose name starts with
// prefix.
func (t *Tracer) LayerPrefix(prefix string) LayerStat {
	t.mu.Lock()
	var names []string
	for n := range t.layers {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	t.mu.Unlock()
	return t.Layer(names...)
}

// SpanCount returns how many spans were recorded, kept or not.
func (t *Tracer) SpanCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.spans)) + t.dropped
}

// WriteSpans writes the kept spans as JSON lines to
// <workdir>/spans-<workload>-seed<n>.jsonl and notes the path in r.
func (t *Tracer) WriteSpans(o options, r *results) error {
	path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	r.note("spans written to %s", path)
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// tracedAPI times the calls into one registry.API implementation: the
// rpc.Client origin, the Router the server serves, or a shard Instance.
// Methods it does not override pass straight through the embedded API.
type tracedAPI struct {
	registry.API
	t     *Tracer
	layer string
}

// Decorated deployments still expose their change feed and durability to
// the router and the RPC server, which discover both by type assertion.
var (
	_ registry.ChangeFeeder = (*tracedAPI)(nil)
	_ registry.Recoverable  = (*tracedAPI)(nil)
)

func traceAPI(t *Tracer, layer string, api registry.API) *tracedAPI {
	return &tracedAPI{API: api, t: t, layer: layer}
}

func (a *tracedAPI) Get(ctx context.Context, name string) (registry.Entry, error) {
	return record(a.t, ctx, a.layer+".Get", name, func(ctx context.Context) (registry.Entry, error) {
		return a.API.Get(ctx, name)
	})
}

func (a *tracedAPI) Create(ctx context.Context, e registry.Entry) (registry.Entry, error) {
	return record(a.t, ctx, a.layer+".Create", e.Name, func(ctx context.Context) (registry.Entry, error) {
		return a.API.Create(ctx, e)
	})
}

func (a *tracedAPI) Put(ctx context.Context, e registry.Entry) (registry.Entry, error) {
	return record(a.t, ctx, a.layer+".Put", e.Name, func(ctx context.Context) (registry.Entry, error) {
		return a.API.Put(ctx, e)
	})
}

func (a *tracedAPI) AddLocation(ctx context.Context, name string, loc registry.Location) (registry.Entry, error) {
	return record(a.t, ctx, a.layer+".AddLocation", name, func(ctx context.Context) (registry.Entry, error) {
		return a.API.AddLocation(ctx, name, loc)
	})
}

func (a *tracedAPI) GetMany(ctx context.Context, names []string) ([]registry.Entry, error) {
	return record(a.t, ctx, a.layer+".GetMany", "", func(ctx context.Context) ([]registry.Entry, error) {
		return a.API.GetMany(ctx, names)
	})
}

func (a *tracedAPI) PutMany(ctx context.Context, entries []registry.Entry) ([]registry.Entry, error) {
	return record(a.t, ctx, a.layer+".PutMany", "", func(ctx context.Context) ([]registry.Entry, error) {
		return a.API.PutMany(ctx, entries)
	})
}

func (a *tracedAPI) Merge(ctx context.Context, entries []registry.Entry) (int, error) {
	return record(a.t, ctx, a.layer+".Merge", "", func(ctx context.Context) (int, error) {
		return a.API.Merge(ctx, entries)
	})
}

// errNoFeed answers feed calls on a decorated API whose callee has no feed;
// callers only reach it after ChangeFeed returned nil.
var errNoFeed = errors.New("perfbench: decorated registry has no change feed")

func (a *tracedAPI) ChangeFeed() *feed.Log {
	if f, ok := a.API.(registry.ChangeFeeder); ok {
		return f.ChangeFeed()
	}
	return nil
}

func (a *tracedAPI) FeedSnapshot(ctx context.Context) ([]feed.Event, uint64, error) {
	if f, ok := a.API.(registry.ChangeFeeder); ok {
		return f.FeedSnapshot(ctx)
	}
	return nil, 0, errNoFeed
}

func (a *tracedAPI) FeedBarrier(ctx context.Context) (uint64, error) {
	if f, ok := a.API.(registry.ChangeFeeder); ok {
		return f.FeedBarrier(ctx)
	}
	return 0, errNoFeed
}

func (a *tracedAPI) DurableSeq() (uint64, bool) {
	if r, ok := a.API.(registry.Recoverable); ok {
		return r.DurableSeq()
	}
	return 0, false
}

// tracedStore times the calls into the cache tier (memcache) below an
// Instance.
type tracedStore struct {
	registry.Store
	t *Tracer
}

func traceStore(t *Tracer, s registry.Store) *tracedStore { return &tracedStore{Store: s, t: t} }

func (s *tracedStore) Get(key string) (memcache.Item, error) {
	return record(s.t, nil, "memcache.Get", key, func(context.Context) (memcache.Item, error) {
		return s.Store.Get(key)
	})
}

func (s *tracedStore) Put(key string, value []byte, ttl time.Duration) (memcache.Item, error) {
	return record(s.t, nil, "memcache.Put", key, func(context.Context) (memcache.Item, error) {
		return s.Store.Put(key, value, ttl)
	})
}

func (s *tracedStore) CAS(key string, value []byte, ttl time.Duration, expected uint64) (memcache.Item, error) {
	return record(s.t, nil, "memcache.CAS", key, func(context.Context) (memcache.Item, error) {
		return s.Store.CAS(key, value, ttl, expected)
	})
}

func (s *tracedStore) GetBatch(keys []string) ([]memcache.Item, []string, error) {
	var missing []string
	found, err := record(s.t, nil, "memcache.GetBatch", "", func(context.Context) ([]memcache.Item, error) {
		f, m, err := s.Store.GetBatch(keys)
		missing = m
		return f, err
	})
	return found, missing, err
}

func (s *tracedStore) PutBatch(kvs []memcache.KV) ([]memcache.Item, error) {
	return record(s.t, nil, "memcache.PutBatch", "", func(context.Context) ([]memcache.Item, error) {
		return s.Store.PutBatch(kvs)
	})
}

// timedService times every Create and Lookup a workflow engine issues, in
// both traced and untraced runs (the end-to-end operation latencies come
// from it), and records core spans when tracing is on.
type timedService struct {
	core.MetadataService
	t  *Tracer
	mu sync.Mutex
	// create and lookup are wall-clock call durations.
	create, lookup []time.Duration
}

// root makes each operation a workflow task issues a request of its own
// when tracing is on.
func (s *timedService) root(ctx context.Context) context.Context {
	if s.t.enabled() {
		return newRequest(ctx)
	}
	return ctx
}

func (s *timedService) Create(ctx context.Context, from cloud.SiteID, e registry.Entry) (registry.Entry, error) {
	start := time.Now()
	out, err := record(s.t, s.root(ctx), "core.Create", e.Name, func(ctx context.Context) (registry.Entry, error) {
		return s.MetadataService.Create(ctx, from, e)
	})
	d := time.Since(start)
	s.mu.Lock()
	s.create = append(s.create, d)
	s.mu.Unlock()
	return out, err
}

func (s *timedService) Lookup(ctx context.Context, from cloud.SiteID, name string) (registry.Entry, error) {
	start := time.Now()
	out, err := record(s.t, s.root(ctx), "core.Lookup", name, func(ctx context.Context) (registry.Entry, error) {
		return s.MetadataService.Lookup(ctx, from, name)
	})
	d := time.Since(start)
	s.mu.Lock()
	s.lookup = append(s.lookup, d)
	s.mu.Unlock()
	return out, err
}

func (s *timedService) AddLocation(ctx context.Context, from cloud.SiteID, name string, loc registry.Location) (registry.Entry, error) {
	return record(s.t, s.root(ctx), "core.AddLocation", name, func(ctx context.Context) (registry.Entry, error) {
		return s.MetadataService.AddLocation(ctx, from, name, loc)
	})
}

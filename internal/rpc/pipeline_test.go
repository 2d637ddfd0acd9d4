package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/memcache"
	"geomds/internal/registry"
)

// slowAPI delays Get calls whose name carries the "slow" prefix, so tests
// can hold one pipelined request open while others complete.
type slowAPI struct {
	registry.API
	delay time.Duration
}

func (s slowAPI) Get(ctx context.Context, name string) (registry.Entry, error) {
	if strings.HasPrefix(name, "slow") {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return registry.Entry{}, ctx.Err()
		}
	}
	return s.API.Get(ctx, name)
}

func startSlowServer(t *testing.T, delay time.Duration, opts ...ClientOption) *Client {
	t.Helper()
	inst := registry.NewInstance(0, memcache.New(memcache.Config{}))
	srv := NewServer(slowAPI{API: inst, delay: delay}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(tctx, addr, append([]ClientOption{WithTimeout(5 * time.Second)}, opts...)...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestPipelinedOutOfOrder verifies that on a single connection a fast
// request overtakes a slow one already in flight: the response
// demultiplexer must route by ID, not by arrival order.
func TestPipelinedOutOfOrder(t *testing.T) {
	const delay = 400 * time.Millisecond
	client := startSlowServer(t, delay, WithPoolSize(1))
	if _, err := client.Create(tctx, wireEntry("slow-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Create(tctx, wireEntry("fast-1")); err != nil {
		t.Fatal(err)
	}

	slowDone := make(chan error, 1)
	go func() {
		_, err := client.Get(tctx, "slow-1")
		slowDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the slow request hit the wire first

	start := time.Now()
	if _, err := client.Get(tctx, "fast-1"); err != nil {
		t.Fatalf("fast Get: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= delay {
		t.Errorf("fast Get took %v; it waited behind the slow request instead of overtaking it", elapsed)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow Get: %v", err)
	}
}

// TestReconnectMidPipeline drops the transport while several pipelined
// requests are in flight: every caller must recover through the client's
// transparent retry on a fresh connection.
func TestReconnectMidPipeline(t *testing.T) {
	client := startSlowServer(t, 300*time.Millisecond, WithPoolSize(1))
	const inflight = 8
	for i := 0; i < inflight; i++ {
		if _, err := client.Create(tctx, wireEntry(fmt.Sprintf("slow-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.Get(tctx, fmt.Sprintf("slow-%d", i)); err != nil {
				errs <- err
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // all requests are written and pending
	client.mu.Lock()
	for _, pc := range client.conns {
		if pc != nil {
			pc.conn.Close()
		}
	}
	client.mu.Unlock()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("pipelined call did not survive the reconnect: %v", err)
	}
	// The pool must be usable afterwards.
	if _, err := client.Get(tctx, "slow-0"); err != nil {
		t.Errorf("Get after recovery: %v", err)
	}
}

// TestBatchEquivalence runs the same operation sequence through one batch
// frame and through per-op calls against a twin server, asserting identical
// responses and final state.
func TestBatchEquivalence(t *testing.T) {
	_, batched := startTestServer(t, 0)
	_, perOp := startTestServer(t, 0)

	var ops []Request
	for i := 0; i < 4; i++ {
		ops = append(ops, Request{Op: OpCreate, Entry: wireEntry(fmt.Sprintf("b%d", i))})
	}
	ops = append(ops,
		Request{Op: OpGet, Name: "b2"},
		Request{Op: OpGetMany, Names: []string{"b3", "absent"}},
		Request{Op: OpDelete, Name: "b0"},
		Request{Op: OpGet, Name: "b0"}, // must fail: deleted by the previous op
		Request{Op: OpEntries},
	)

	batchResps, err := batched.Batch(tctx, ops)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	var singleResps []Response
	for _, op := range ops {
		resp, err := perOp.call(tctx, op)
		if err != nil {
			t.Fatalf("per-op %s: %v", op.Op, err)
		}
		singleResps = append(singleResps, resp)
	}

	if len(batchResps) != len(singleResps) {
		t.Fatalf("batch returned %d responses, per-op %d", len(batchResps), len(singleResps))
	}
	for i := range ops {
		b, s := batchResps[i], singleResps[i]
		if b.OK != s.OK || b.Err != s.Err || len(b.Entries) != len(s.Entries) || b.N != s.N || !b.Entry.Equal(s.Entry) {
			t.Errorf("op %d (%s): batch=%+v per-op=%+v", i, ops[i].Op, b, s)
		}
	}
	if got, want := entryCount(t, batched), entryCount(t, perOp); got != want {
		t.Errorf("final Len: batch server %d, per-op server %d", got, want)
	}
}

// TestPutManyDeleteManyOverWire exercises the first-class bulk ops as
// single frames.
func TestPutManyDeleteManyOverWire(t *testing.T) {
	_, client := startTestServer(t, 0)
	var batch []registry.Entry
	for i := 0; i < 6; i++ {
		batch = append(batch, wireEntry(fmt.Sprintf("pm%d", i)))
	}
	stored, err := client.PutMany(tctx, batch)
	if err != nil {
		t.Fatalf("PutMany: %v", err)
	}
	if len(stored) != len(batch) {
		t.Fatalf("PutMany returned %d entries, want %d", len(stored), len(batch))
	}
	for i, e := range stored {
		if e.Version == 0 {
			t.Errorf("stored[%d] has no version", i)
		}
	}
	if entryCount(t, client) != 6 {
		t.Errorf("Len = %d, want 6", entryCount(t, client))
	}
	n, err := client.DeleteMany(tctx, []string{"pm0", "pm1", "absent", "pm2"})
	if err != nil {
		t.Fatalf("DeleteMany: %v", err)
	}
	if n != 3 {
		t.Errorf("DeleteMany removed %d, want 3 (absent names are skipped)", n)
	}
	if entryCount(t, client) != 3 {
		t.Errorf("Len after DeleteMany = %d, want 3", entryCount(t, client))
	}
	if _, err := client.PutMany(tctx, nil); err != nil {
		t.Errorf("empty PutMany: %v", err)
	}
	if _, err := client.DeleteMany(tctx, nil); err != nil {
		t.Errorf("empty DeleteMany: %v", err)
	}
	if _, err := client.PutMany(tctx, []registry.Entry{{}}); !errors.Is(err, registry.ErrInvalidEntry) {
		t.Errorf("PutMany with invalid entry = %v, want ErrInvalidEntry", err)
	}
}

// TestLegacyV1ClientAgainstV2Server speaks the version-1 un-tagged protocol
// by hand: bare length-framed Requests must still be answered, in order,
// with bare Responses on the same connection.
func TestLegacyV1ClientAgainstV2Server(t *testing.T) {
	inst := registry.NewInstance(7, memcache.New(memcache.Config{}))
	srv := NewServer(inst, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	exchange := func(req Request) Response {
		t.Helper()
		if err := writeFrame(conn, req); err != nil {
			t.Fatalf("legacy write: %v", err)
		}
		var resp Response
		if err := readFrame(conn, &resp); err != nil {
			t.Fatalf("legacy read: %v", err)
		}
		return resp
	}

	e := wireEntry("legacy-1")
	if resp := exchange(Request{Op: OpSite}); !resp.OK || siteFromN(resp.N) != cloud.SiteID(7) {
		t.Errorf("legacy OpSite = %+v", resp)
	}
	if resp := exchange(Request{Op: OpCreate, Entry: e}); !resp.OK {
		t.Errorf("legacy OpCreate = %+v", resp)
	}
	if resp := exchange(Request{Op: OpGet, Name: "legacy-1"}); !resp.OK || !resp.Entry.Equal(e) {
		t.Errorf("legacy OpGet = %+v", resp)
	}

	// A version-2 client sharing the server (even the registry state) works.
	v2, err := Dial(tctx, addr)
	if err != nil {
		t.Fatalf("v2 dial: %v", err)
	}
	defer v2.Close()
	if _, err := v2.Get(tctx, "legacy-1"); err != nil {
		t.Errorf("v2 Get of legacy-created entry: %v", err)
	}
}

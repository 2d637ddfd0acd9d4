package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/feed"
	"geomds/internal/limits"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/registry"
)

var tctx = context.Background()

// entryCount is registry.Len, failing the test on error.
func entryCount(t testing.TB, api registry.API) int {
	t.Helper()
	n, err := registry.Len(tctx, api)
	if err != nil {
		t.Fatalf("counting entries: %v", err)
	}
	return n
}

// holds is registry.Contains, failing the test on error.
func holds(t testing.TB, api registry.API, name string) bool {
	t.Helper()
	ok, err := registry.Contains(tctx, api, name)
	if err != nil {
		t.Fatalf("checking %q: %v", name, err)
	}
	return ok
}

// startTestServer brings up a server on a random localhost port and returns a
// connected client. Both are torn down when the test finishes.
func startTestServer(t *testing.T, site cloud.SiteID) (*Server, *Client) {
	t.Helper()
	inst := registry.NewInstance(site, memcache.New(memcache.Config{}))
	srv := NewServer(inst, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(tctx, addr, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return srv, client
}

func wireEntry(name string) registry.Entry {
	return registry.NewEntry(name, 2048, "task-w", registry.Location{Site: 1, Node: 4})
}

func TestClientSiteAndPing(t *testing.T) {
	_, client := startTestServer(t, 3)
	if client.Site() != 3 {
		t.Errorf("Site = %d, want 3", client.Site())
	}
	if err := client.Ping(tctx); err != nil {
		t.Errorf("Ping: %v", err)
	}
	if client.Addr() == "" {
		t.Error("Addr should not be empty")
	}
}

func TestCreateGetOverWire(t *testing.T) {
	_, client := startTestServer(t, 0)
	e := wireEntry("wire-1")
	stored, err := client.Create(tctx, e)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if stored.Version == 0 {
		t.Error("Create should return the stored version")
	}
	got, err := client.Get(tctx, "wire-1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !got.Equal(e) {
		t.Errorf("Get = %+v, want %+v", got, e)
	}
	if !holds(t, client, "wire-1") || holds(t, client, "nope") {
		t.Error("Contains misbehaves")
	}
	if entryCount(t, client) != 1 {
		t.Errorf("Len = %d, want 1", entryCount(t, client))
	}
}

func TestErrorsCrossTheWire(t *testing.T) {
	_, client := startTestServer(t, 0)
	e := wireEntry("dup")
	if _, err := client.Create(tctx, e); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Create(tctx, e); !errors.Is(err, registry.ErrExists) {
		t.Errorf("duplicate Create = %v, want ErrExists", err)
	}
	if _, err := client.Get(tctx, "missing"); !errors.Is(err, registry.ErrNotFound) {
		t.Errorf("Get missing = %v, want ErrNotFound", err)
	}
	if err := client.Delete(tctx, "missing"); !errors.Is(err, registry.ErrNotFound) {
		t.Errorf("Delete missing = %v, want ErrNotFound", err)
	}
	if _, err := client.Create(tctx, registry.Entry{}); !errors.Is(err, registry.ErrInvalidEntry) {
		t.Errorf("Create invalid = %v, want ErrInvalidEntry", err)
	}
	if _, err := client.AddLocation(tctx, "missing", registry.Location{}); !errors.Is(err, registry.ErrNotFound) {
		t.Errorf("AddLocation missing = %v, want ErrNotFound", err)
	}
}

func TestUpdateDeleteOverWire(t *testing.T) {
	_, client := startTestServer(t, 0)
	e := wireEntry("upd")
	client.Create(tctx, e)
	loc := registry.Location{Site: 2, Node: 9}
	updated, err := client.AddLocation(tctx, "upd", loc)
	if err != nil {
		t.Fatalf("AddLocation: %v", err)
	}
	if !updated.HasLocation(loc) {
		t.Error("location not added")
	}
	if err := client.Delete(tctx, "upd"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if holds(t, client, "upd") {
		t.Error("entry still present after delete")
	}
}

func TestPutNamesEntriesMergeOverWire(t *testing.T) {
	_, client := startTestServer(t, 0)
	var batch []registry.Entry
	for i := 0; i < 5; i++ {
		batch = append(batch, wireEntry(fmt.Sprintf("m%d", i)))
	}
	n, err := client.Merge(tctx, batch)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if n != 5 {
		t.Errorf("Merge applied %d, want 5", n)
	}
	if _, err := client.Put(tctx, wireEntry("m0")); err != nil {
		t.Errorf("Put: %v", err)
	}
	entries, err := client.Entries(tctx)
	if err != nil || len(entries) != 5 {
		t.Errorf("Entries = %d, %v; want 5", len(entries), err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, first := startTestServer(t, 0)
	addr := first.Addr()
	const clients = 6
	const perClient = 30
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(tctx, addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				name := fmt.Sprintf("c%d-f%d", ci, i)
				if _, err := c.Create(tctx, wireEntry(name)); err != nil {
					errs <- fmt.Errorf("create %s: %w", name, err)
					return
				}
				if _, err := c.Get(tctx, name); err != nil {
					errs <- fmt.Errorf("get %s: %w", name, err)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if entryCount(t, first) != clients*perClient {
		t.Errorf("server holds %d entries, want %d", entryCount(t, first), clients*perClient)
	}
	if srv.Requests() == 0 {
		t.Error("server request counter did not advance")
	}
}

func TestClientReconnects(t *testing.T) {
	_, client := startTestServer(t, 0)
	if _, err := client.Create(tctx, wireEntry("before")); err != nil {
		t.Fatal(err)
	}
	// Force every pooled connection to go stale; the next call must recover.
	client.mu.Lock()
	for _, pc := range client.conns {
		if pc != nil {
			pc.conn.Close()
		}
	}
	client.mu.Unlock()
	if _, err := client.Get(tctx, "before"); err != nil {
		t.Errorf("Get after dropped connection: %v", err)
	}
}

func TestClientClosed(t *testing.T) {
	_, client := startTestServer(t, 0)
	client.Close()
	if _, err := client.Get(tctx, "x"); err == nil {
		t.Error("calls on a closed client should fail")
	}
	if err := client.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial(tctx, "127.0.0.1:1", WithTimeout(200*time.Millisecond)); err == nil {
		t.Error("Dial to a closed port should fail")
	}
}

func TestServerClose(t *testing.T) {
	inst := registry.NewInstance(0, memcache.New(memcache.Config{}))
	srv := NewServer(inst, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(tctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// The client should fail (possibly after its one retry) once the server
	// is gone.
	if err := client.Ping(tctx); err == nil {
		t.Error("Ping should fail after server shutdown")
	}
	client.Close()
	if srv.Addr() == "" {
		t.Error("Addr should remain known after close")
	}
}

func TestBadOpRejected(t *testing.T) {
	_, client := startTestServer(t, 0)
	resp, err := client.call(tctx, Request{Op: Op("bogus")})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if resp.OK || resp.Err != ErrBadOp {
		t.Errorf("bogus op response = %+v", resp)
	}
}

// TestRetiredOpsAnswerBadOp asserts that the retired best-effort ops
// ("contains", "names", "len") are refused with a clean bad-op error frame,
// alone or inside a batch, and that the connection keeps serving.
func TestRetiredOpsAnswerBadOp(t *testing.T) {
	inst := registry.NewInstance(0, memcache.New(memcache.Config{}))
	srv := NewServer(inst, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	reg := metrics.NewRegistry()
	client, err := Dial(tctx, addr, WithPoolSize(1), WithTimeout(5*time.Second), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if _, err := client.Create(tctx, wireEntry("kept")); err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op{"contains", "names", "len"} {
		resp, err := client.call(tctx, Request{Op: op, Name: "kept"})
		if err != nil {
			t.Fatalf("%s: transport error %v, want a bad-op frame", op, err)
		}
		if resp.OK || resp.Err != ErrBadOp {
			t.Errorf("%s answered %+v, want bad-op", op, resp)
		}
		resps, err := client.Batch(tctx, []Request{{Op: op}, {Op: OpGet, Name: "kept"}})
		if err != nil {
			t.Fatalf("batch with %s: %v", op, err)
		}
		if resps[0].OK || resps[0].Err != ErrBadOp || !resps[1].OK {
			t.Errorf("batch with %s answered %+v, want bad-op then the entry", op, resps)
		}
		if _, err := client.Get(tctx, "kept"); err != nil {
			t.Fatalf("Get after %s: %v", op, err)
		}
	}
	if got := reg.Counter("rpc_client_dials_total").Value(); got != 1 {
		t.Errorf("dials = %d, want 1: a retired op must not cost the connection", got)
	}
}

func TestCoreFabricOverRPC(t *testing.T) {
	// End-to-end: four registry servers (one per site) driven through the
	// strategies via rpc clients plugged into the fabric. Exercised more
	// fully in examples/multisite; here we check the wiring compiles and a
	// round trip works through registry.API.
	sites := []cloud.SiteID{0, 1, 2, 3}
	proxies := make(map[cloud.SiteID]registry.API, len(sites))
	for _, s := range sites {
		inst := registry.NewInstance(s, memcache.New(memcache.Config{}))
		srv := NewServer(inst, nil)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		client, err := Dial(tctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		proxies[s] = client
	}
	e := wireEntry("fabric-over-rpc")
	if _, err := proxies[2].Create(tctx, e); err != nil {
		t.Fatalf("Create via proxy: %v", err)
	}
	got, err := proxies[2].Get(tctx, "fabric-over-rpc")
	if err != nil || !got.Equal(e) {
		t.Errorf("Get via proxy: %v", err)
	}
}

// TestErrorCodesRoundTrip asserts every classified error keeps its sentinel
// across encode/decode, feed sentinels included, and that anything
// unclassified travels as an opaque internal error.
func TestErrorCodesRoundTrip(t *testing.T) {
	for _, sentinel := range []error{
		registry.ErrNotFound, registry.ErrExists, registry.ErrConflict,
		registry.ErrInvalidEntry, registry.ErrUnavailable,
		context.DeadlineExceeded, context.Canceled, limits.ErrOverloaded,
		feed.ErrLagged, feed.ErrClosed, feed.ErrCompacted,
	} {
		code, detail := encodeFeedErr(fmt.Errorf("op: %w", sentinel))
		if err := decodeFeedErr(Response{Err: code, Detail: detail}); !errors.Is(err, sentinel) {
			t.Errorf("%v: encoded as %q, decoded to %v", sentinel, code, err)
		}
	}
	code, detail := encodeErr(errors.New("disk on fire"))
	if code != ErrInternal {
		t.Fatalf("unclassified error encoded as %q, want %q", code, ErrInternal)
	}
	if err := decodeErr(code, detail); err == nil || errors.Is(err, registry.ErrUnavailable) {
		t.Fatalf("internal error decoded to %v", err)
	}
	if code, _ := encodeErr(nil); code != ErrNone || decodeErr(ErrNone, "") != nil {
		t.Fatal("nil error must round-trip as no error")
	}
}

// TestGetManyOverWire exercises the bulk read frame through a pooled client
// against a server with a bounded per-connection pipeline.
func TestGetManyOverWire(t *testing.T) {
	inst := registry.NewInstance(0, memcache.New(memcache.Config{}))
	srv := NewServer(inst, nil, WithMaxInflight(2))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(tctx, addr, WithPoolSize(3), WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if client.PoolSize() != 3 {
		t.Fatalf("PoolSize = %d, want 3", client.PoolSize())
	}
	for _, name := range []string{"g1", "g2"} {
		if _, err := client.Create(tctx, wireEntry(name)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := client.GetMany(tctx, []string{"g1", "absent", "g2"})
	if err != nil || len(got) != 2 || got[0].Name != "g1" || got[1].Name != "g2" {
		t.Fatalf("GetMany = %+v, %v; want g1 and g2", got, err)
	}
	cancelled, cancel := context.WithCancel(tctx)
	cancel()
	if _, err := client.GetMany(cancelled, []string{"g1"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetMany on a cancelled context = %v, want context.Canceled", err)
	}
}

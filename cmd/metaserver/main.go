// Command metaserver runs one metadata registry deployment as a stand-alone
// TCP server — the per-datacenter registry of the paper, as a separate
// process. The deployment behind the served API is configurable:
//
//   - the default is a single registry instance on one cache;
//   - -shards N serves a horizontally sharded tier: N instances, each on its
//     own capacity-bounded cache, behind a consistent-hash router (single-key
//     operations route to the owning shard, bulk operations split into one
//     concurrent sub-batch per shard);
//   - -shard-addrs a,b,c serves a pure routing tier: the shards are other
//     metaserver processes (typically plain single-instance ones) reached
//     over RPC, so one site scales across machines;
//   - -replication R (with either tier) stores every key on R shards of the
//     tier: writes fan out to all R replicas (-write-concern all|quorum),
//     reads fail over down the replica list, and a per-shard health breaker
//     plus background probe keeps routing away from crashed shards until a
//     re-sync sweep repairs them — the site serves its whole key range
//     through the loss of any R-1 shards;
//   - -data-dir D persists the registry to an append-only write-ahead log
//     under D (one shard-<i> subdirectory per shard with -shards) and
//     recovers it on the next start, so acknowledged writes survive a crash.
//     -fsync picks the log's sync policy: always (every append, the
//     default) or never (only at snapshot and shutdown). A replicated tier
//     repairs a restarted durable shard from its recovered state — only the
//     writes it missed are replayed, not the whole key range;
//   - -feed publishes every committed put and delete on a change feed that
//     clients stream with the Watch protocol (metactl watch). Durable
//     instances reuse the WAL's sequence numbers, so resume tokens survive
//     restarts; with -shards the per-shard feeds are relayed into one
//     combined feed. -feed-capacity bounds the retained event window a
//     disconnected watcher can resume inside before the snapshot fallback
//     kicks in. -feed does not compose with -shard-addrs: remote shard
//     processes own their feeds, watch them directly;
//   - -cache serves reads through a feed-coherent near cache
//     (internal/readcache) in front of the deployment, so hot keys skip the
//     cache tier's modelled service time and, behind a routing tier, the
//     extra network hop. With -feed the cache is push-invalidated by the
//     change feed and serves through (uncached, never stale) whenever its
//     feed stream is down; without -feed it bounds staleness by the
//     -cache-staleness TTL instead. The readcache hit/miss/invalidation
//     counters and occupancy gauge report to -metrics-addr, so `metactl
//     stats` shows the hit ratio;
//   - -tenant-config F enforces multi-tenant admission control from the JSON
//     file F: per-tenant token-bucket quotas on operations and payload bytes,
//     plus a server-wide in-flight cap that sheds load before any work is
//     queued. Over-limit requests are refused at the frame-decode boundary
//     with the "overloaded" wire code and a retry-after hint; v1 clients and
//     requests without a tenant ID are charged to the "default" tenant.
//     SIGHUP reloads the file in place (a broken file keeps the previous
//     limits). Per-tenant admission counters report to -metrics-addr.
//
// Usage:
//
//	metaserver -addr :7070 -site 1 -name "West Europe"
//	metaserver -addr :7070 -site 1 -shards 4
//	metaserver -addr :7070 -site 1 -shards 4 -replication 2
//	metaserver -addr :7070 -site 1 -shards 4 -data-dir /var/lib/geomds
//	metaserver -addr :7070 -site 1 -shard-addrs 10.0.0.1:7071,10.0.0.2:7071
//	metaserver -addr :7070 -site 1 -metrics-addr :9090
//
// Clients (cmd/metactl, cmd/wfrun, or the core strategies via rpc.Dial)
// connect to the printed address and cannot tell the three deployments
// apart.
//
// With -metrics-addr the server additionally exposes its live metrics over
// HTTP: GET /metrics serves the Prometheus text format, GET /metrics.json a
// JSON snapshot, and GET /trace.json the most recent per-operation trace
// events. The exported series cover the RPC server (dispatched, abandoned,
// per-code error counts, in-flight requests) and the cache tier behind the
// registry (hit rate, occupancy, worker-slot wait). `metactl stats
// -metrics-addr` renders the same data in the terminal.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
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
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7070", "address to listen on")
		site        = flag.Int("site", 0, "site ID this registry instance serves")
		name        = flag.String("name", "", "human-readable site name (informational)")
		serviceTime = flag.Duration("service-time", 0, "simulated per-operation service time of the cache instance")
		concurrency = flag.Int("concurrency", 0, "bound on concurrently served cache operations (0 = unbounded)")
		ha          = flag.Bool("ha", false, "back the registry with a primary/replica cache pair")
		shards      = flag.Int("shards", 1, "serve a sharded tier of this many in-process registry instances behind a router (1 = single instance)")
		shardAddrs  = flag.String("shard-addrs", "", "serve a routing tier over these comma-separated remote shard servers instead of local instances")
		replication = flag.Int("replication", 1, "store every key on this many shards of the tier (writes fan out, reads fail over; 1 = single-home placement)")
		concern     = flag.String("write-concern", "all", "replicated-write acknowledgement rule: all (every replica) or quorum (majority)")
		inflight    = flag.Int("inflight", rpc.DefaultMaxInflight, "max pipelined requests one connection may execute concurrently")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus (/metrics) and JSON (/metrics.json, /trace.json) metrics on this address; empty disables")
		dataDir     = flag.String("data-dir", "", "persist the registry to a write-ahead log under this directory and recover from it on start; empty keeps the registry in memory")
		fsyncMode   = flag.String("fsync", "always", "write-ahead log fsync policy with -data-dir: always (sync every append) or never (sync only at snapshot and shutdown)")
		feedOn      = flag.Bool("feed", false, "publish every committed put and delete on a change feed served to Watch subscribers (metactl watch)")
		feedCap     = flag.Int("feed-capacity", feed.DefaultCapacity, "events the change feed retains for resuming watchers; older cursors take the snapshot fallback")
		cacheOn     = flag.Bool("cache", false, "serve reads through a feed-coherent near cache in front of the deployment; coherent via the change feed with -feed, TTL-bounded without it")
		cacheTTL    = flag.Duration("cache-staleness", 0, "max staleness the near cache may serve without a change feed (0 = the readcache default; ignored with -feed, where the feed is the bound)")
		tenantCfg   = flag.String("tenant-config", "", "enforce per-tenant admission control from this JSON config (token-bucket quotas, load shedding); SIGHUP reloads it without dropping connections")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "metaserver: ", log.LstdFlags)

	// The server process owns its registry of live instruments; the RPC
	// server, the router and the cache tier report to it, and -metrics-addr
	// exposes it.
	reg := metrics.NewRegistry()

	newCache := func() *memcache.Cache {
		return memcache.New(memcache.Config{
			ServiceTime: *serviceTime,
			Concurrency: *concurrency,
			Metrics:     reg,
		})
	}
	newStore := func() registry.Store {
		if *ha {
			return memcache.NewHA(newCache)
		}
		return newCache()
	}

	var writeConcern registry.WriteConcern
	switch *concern {
	case "all":
		writeConcern = registry.WriteAll
	case "quorum":
		writeConcern = registry.WriteQuorum
	default:
		logger.Fatalf("-write-concern must be all or quorum, got %q", *concern)
	}
	if *replication > 1 && *shards <= 1 && *shardAddrs == "" {
		// Refuse rather than silently serve a single unreplicated instance
		// the operator believes is fault-tolerant.
		logger.Fatal("-replication requires a sharded tier (-shards > 1 or -shard-addrs)")
	}
	fsync, err := store.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		logger.Fatalf("-fsync: %v", err)
	}
	if *dataDir != "" && *shardAddrs != "" {
		// Persistence lives where the data lives: each remote shard process
		// owns its log via its own -data-dir.
		logger.Fatal("-data-dir applies to in-process instances; give each remote shard its own -data-dir instead")
	}
	if *cacheTTL < 0 {
		logger.Fatal("-cache-staleness must be >= 0 (0 selects the readcache default)")
	}
	if *feedOn && *shardAddrs != "" {
		// Feeds live where the commits happen: each remote shard process
		// publishes its own feed; watch the shard servers directly.
		logger.Fatal("-feed applies to in-process instances; run each remote shard with its own -feed and watch it directly")
	}
	var instOpts []registry.InstanceOption
	if *feedOn {
		instOpts = append(instOpts, registry.WithChangeFeed(
			feed.WithCapacity(*feedCap), feed.WithLogMetrics(reg)))
	}
	storeOpts := []store.Option{store.WithFsync(fsync)}
	// Persistent instances are closed on shutdown, flushing and fsyncing the
	// log tail even under -fsync=never. This defer is registered before the
	// router's (below), so it runs after it: no re-sync sweep races a
	// closing log.
	var local, persistent []*registry.Instance
	defer func() {
		for _, inst := range persistent {
			if err := inst.Close(); err != nil {
				logger.Printf("flushing registry log: %v", err)
			}
		}
	}()
	// newInstance builds one registry instance, in-memory or recovered from
	// (and journaling to) its subdirectory of -data-dir.
	newInstance := func(sub string) registry.API {
		if *dataDir == "" {
			inst := registry.NewInstance(cloud.SiteID(*site), newStore(), instOpts...)
			local = append(local, inst)
			return inst
		}
		inst, err := registry.OpenInstance(cloud.SiteID(*site), newStore(), filepath.Join(*dataDir, sub), storeOpts, instOpts...)
		if err != nil {
			logger.Fatalf("open registry data dir: %v", err)
		}
		seq, _ := inst.DurableSeq()
		logger.Printf("recovered %s: %d entries, log seq %d", filepath.Join(*dataDir, sub), inst.Store().Len(), seq)
		local = append(local, inst)
		persistent = append(persistent, inst)
		return inst
	}
	routerOpts := []registry.RouterOption{
		registry.WithRouterMetrics(reg),
		registry.WithRouterReplication(*replication),
		registry.WithRouterWriteConcern(writeConcern),
	}

	var (
		api        registry.API
		deployment string
	)
	switch {
	case *shardAddrs != "":
		if *shards > 1 {
			logger.Fatal("-shards and -shard-addrs are mutually exclusive")
		}
		addrs := strings.Split(*shardAddrs, ",")
		proxies := make([]registry.API, 0, len(addrs))
		for _, a := range addrs {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			// A fresh context per dial: a tier of many (or slow) shards must
			// not fail startup because earlier dials consumed one shared
			// budget.
			dialCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			client, err := rpc.Dial(dialCtx, a, rpc.WithMetrics(reg))
			cancel()
			if err != nil {
				logger.Fatalf("dial shard %s: %v", a, err)
			}
			defer client.Close()
			proxies = append(proxies, client)
		}
		router, err := registry.NewRouter(cloud.SiteID(*site), proxies, routerOpts...)
		if err != nil {
			logger.Fatalf("shard router: %v", err)
		}
		defer router.Close()
		api = router
		deployment = fmt.Sprintf("routing tier over %d remote shards", len(proxies))
		if router.Replication() > 1 {
			deployment += fmt.Sprintf(", %d-way replicated (%s)", router.Replication(), writeConcern)
		}
	case *shards > 1:
		insts := make([]registry.API, *shards)
		for i := range insts {
			insts[i] = newInstance(fmt.Sprintf("shard-%d", i))
		}
		router, err := registry.NewRouter(cloud.SiteID(*site), insts, routerOpts...)
		if err != nil {
			logger.Fatalf("shard router: %v", err)
		}
		defer router.Close()
		api = router
		deployment = fmt.Sprintf("sharded tier of %d instances", *shards)
		if router.Replication() > 1 {
			deployment += fmt.Sprintf(", %d-way replicated (%s)", router.Replication(), writeConcern)
		}
	default:
		api = newInstance("")
		deployment = "single instance"
	}
	if *dataDir != "" {
		deployment += fmt.Sprintf(", durable in %s (fsync=%s)", *dataDir, fsync)
	}
	if *feedOn {
		deployment += fmt.Sprintf(", change feed (last %d events retained)", *feedCap)
	}
	// -cache interposes a feed-coherent near cache between the RPC server and
	// the deployment: hot reads skip the cache tier's modelled service time
	// (and, behind a routing tier, the extra network hop). With a change feed
	// the cache is push-invalidated and serves through whenever its stream is
	// down; without one it falls back to the TTL staleness bound. Its
	// readcache_{hits,misses,...}_total counters report to the shared metrics
	// registry, so the hit ratio shows up in `metactl stats`.
	if *cacheOn {
		// Invalidation mode, not apply-in-place: feed event bytes carry the
		// entry as submitted, before the store assigned its version, so
		// re-installing them would serve stale Version fields.
		nc := readcache.New(api, readcache.Options{
			Metrics:      reg,
			MaxStaleness: *cacheTTL,
		})
		defer nc.Close()
		if f, ok := api.(registry.ChangeFeeder); ok && f.ChangeFeed() != nil {
			nc.AttachFeed(context.Background(), []feed.Source{{
				Name: "origin",
				Subscribe: func(ctx context.Context, from uint64) (feed.Stream, error) {
					return f.ChangeFeed().Subscribe(from)
				},
				Snapshot: f.FeedSnapshot,
			}})
			deployment += ", near cache (feed-coherent)"
		} else {
			ttl := *cacheTTL
			if ttl == 0 {
				ttl = readcache.DefaultMaxStaleness
			}
			deployment += fmt.Sprintf(", near cache (staleness <= %s; run -feed for push invalidation)", ttl)
		}
		api = nc
	}
	// -tenant-config arms admission control: every request is charged against
	// its tenant's token buckets before any registry work, and SIGHUP swaps in
	// an edited config without restarting (accumulated tokens carry over).
	var limiter *limits.Limiter
	serverOpts := []rpc.ServerOption{rpc.WithMaxInflight(*inflight), rpc.WithServerMetrics(reg)}
	if *tenantCfg != "" {
		lcfg, err := limits.LoadConfig(*tenantCfg)
		if err != nil {
			logger.Fatalf("-tenant-config: %v", err)
		}
		limiter = limits.New(lcfg, reg)
		serverOpts = append(serverOpts, rpc.WithServerLimits(limiter))
		deployment += ", admission control"
	}
	srv := rpc.NewServer(api, logger, serverOpts...)

	bound, err := srv.Start(*addr)
	if err != nil {
		logger.Fatalf("start: %v", err)
	}
	label := *name
	if label == "" {
		label = fmt.Sprintf("site-%d", *site)
	}
	fmt.Printf("metadata registry for %s (site %d, %s) listening on %s\n", label, *site, deployment, bound)

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			logger.Fatalf("metrics listen: %v", err)
		}
		metricsSrv = &http.Server{Handler: metrics.Handler(reg)}
		go func() {
			if err := metricsSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				logger.Printf("metrics server stopped: %v", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics (Prometheus), /metrics.json, /trace.json\n", ln.Addr())
	}

	// Periodically report the local instances' size so operators can watch
	// growth. It sums the stores (one copy per replica on a replicated
	// tier); a routing tier over remote shards has no local store, and its
	// shards report their own.
	ticker := time.NewTicker(30 * time.Second)
	defer ticker.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case <-ticker.C:
			if len(local) == 0 {
				logger.Printf("requests=%d abandoned=%d", srv.Requests(), srv.Abandoned())
				continue
			}
			n := 0
			for _, inst := range local {
				n += inst.Store().Len()
			}
			logger.Printf("entries=%d requests=%d abandoned=%d", n, srv.Requests(), srv.Abandoned())
		case s := <-sig:
			if s == syscall.SIGHUP {
				// Reload the tenant config in place; a broken file keeps the
				// previous limits rather than dropping protection.
				if limiter == nil {
					logger.Printf("received SIGHUP, no -tenant-config to reload")
					continue
				}
				lcfg, err := limits.LoadConfig(*tenantCfg)
				if err != nil {
					logger.Printf("reload -tenant-config: %v (keeping previous limits)", err)
					continue
				}
				limiter.UpdateConfig(lcfg)
				logger.Printf("reloaded %s: %d tenant overrides, max inflight %d", *tenantCfg, len(lcfg.Tenants), lcfg.MaxInflight)
				continue
			}
			logger.Printf("received %v, shutting down", s)
			if metricsSrv != nil {
				shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				metricsSrv.Shutdown(shutdownCtx) //nolint:errcheck // best effort during teardown
				cancel()
			}
			if err := srv.Close(); err != nil {
				logger.Printf("close: %v", err)
			}
			return
		}
	}
}

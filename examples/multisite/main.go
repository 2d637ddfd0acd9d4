// Multisite example: a real multi-process-style deployment of the metadata
// service. One registry TCP server is started per datacenter (the role
// cmd/metaserver plays in a real deployment), the strategies talk to them
// through rpc clients plugged into the fabric, and a small produce/consume
// workload runs across the four sites.
//
// Run with:
//
//	go run ./examples/multisite
//	go run ./examples/multisite -strategy dn -entries 200
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/core"
	"geomds/internal/latency"
	"geomds/internal/memcache"
	"geomds/internal/metrics"
	"geomds/internal/registry"
	"geomds/internal/rpc"
)

func main() {
	var (
		strategyName = flag.String("strategy", "dr", "metadata strategy: c, r, dn or dr")
		entries      = flag.Int("entries", 100, "entries produced per site")
		scale        = flag.Float64("scale", 0.05, "time-compression factor for the injected WAN latency")
	)
	flag.Parse()
	ctx := context.Background()

	kind, err := core.ParseStrategy(*strategyName)
	if err != nil {
		log.Fatal(err)
	}

	topo := cloud.Azure4DC()

	// Start one registry server per datacenter on a local TCP port and dial a
	// client proxy for each — exactly what cmd/metaserver + rpc.Dial do in a
	// real deployment, collapsed into one process for the example.
	proxies := make(map[cloud.SiteID]registry.API, topo.NumSites())
	for _, site := range topo.Sites() {
		inst := registry.NewInstance(site.ID, memcache.New(memcache.Config{}))
		srv := rpc.NewServer(inst, nil)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			log.Fatalf("starting registry for %s: %v", site.Name, err)
		}
		defer srv.Close()
		client, err := rpc.Dial(ctx, addr)
		if err != nil {
			log.Fatalf("dialing registry for %s: %v", site.Name, err)
		}
		defer client.Close()
		proxies[site.ID] = client
		fmt.Printf("registry for %-16s listening on %s\n", site.Name, addr)
	}

	// The fabric charges the WAN latency between sites; the actual storage
	// operations go over the loopback TCP connections to the servers above.
	lat := latency.New(topo, latency.WithScale(*scale), latency.WithSeed(5))
	rec := metrics.NewRecorder()
	rec.SetSimConverter(lat.ToSimulated)
	fabric := core.NewFabric(topo, lat, core.WithInstances(proxies), core.WithRecorder(rec))

	svc, err := core.NewService(fabric, kind)
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	dep := cloud.NewDeployment(topo)
	dep.SpreadNodes(topo.NumSites() * 2)

	// Producers: every site publishes its share of entries.
	start := time.Now()
	for _, node := range dep.Nodes() {
		client := core.NewClient(svc, node)
		for i := 0; i < *entries/2; i++ {
			name := fmt.Sprintf("multisite/%s/site%d-node%d/file%04d", kind.Short(), node.Site, node.ID, i)
			if _, err := client.PublishFile(ctx, name, 64<<10, "producer"); err != nil {
				log.Fatalf("publish: %v", err)
			}
		}
	}
	if err := svc.Flush(ctx); err != nil {
		log.Fatal(err)
	}

	// Consumers: every node reads back entries produced by the node "across
	// the ocean" (same position, different site).
	misses := 0
	for _, node := range dep.Nodes() {
		peer := dep.Node((node.ID + 2) % cloud.NodeID(dep.NumNodes()))
		for i := 0; i < *entries/2; i++ {
			name := fmt.Sprintf("multisite/%s/site%d-node%d/file%04d", kind.Short(), peer.Site, peer.ID, i)
			if _, err := svc.Lookup(ctx, node.Site, name); err != nil {
				misses++
			}
		}
	}
	elapsed := lat.ToSimulated(time.Since(start))

	summary := rec.Summarize()
	fmt.Printf("\nstrategy %s: %d ops in %.1f simulated seconds (%d unresolved reads)\n",
		kind.String(), summary.Count, elapsed.Seconds(), misses)
	fmt.Printf("  mean op latency %v, p95 %v, %d ops crossed datacenters\n",
		summary.Mean.Round(time.Millisecond), summary.P95.Round(time.Millisecond), summary.RemoteCount)
	for _, site := range topo.Sites() {
		n, err := registry.Len(ctx, proxies[site.ID])
		if err != nil {
			log.Fatalf("counting entries at %s: %v", site.Name, err)
		}
		fmt.Printf("  registry at %-16s holds %5d entries\n", site.Name, n)
	}
}

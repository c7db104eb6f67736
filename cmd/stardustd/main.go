// Command stardustd is the chassis management daemon: the long-running
// serving face of the repository. It manages a live cell fabric the way
// the paper's single-management-point claim demands — device inventory,
// per-link telemetry, failure/withdrawal/recovery events, and the
// anomalies its online telemetry analyzers find — and serves scenario
// runs over HTTP through a bounded job queue with a content-addressed
// result cache (identical requests never re-simulate).
//
//	stardustd -addr :8080 -fabric-k 8 -chaos-every-ms 50
//
//	# registry + parameter docs
//	curl localhost:8080/api/v1/scenarios
//	# submit a run (cached by scenario+params+seed)
//	curl -X POST localhost:8080/api/v1/runs -d '{"scenario":"htsim/permutation","params":{"k":"4","proto":"Stardust"},"seed":7}'
//	# status, streamed progress, result bytes
//	curl localhost:8080/api/v1/runs/run-000001
//	curl localhost:8080/api/v1/runs/run-000001/stream
//	curl localhost:8080/api/v1/runs/run-000001/result
//	# chassis state
//	curl localhost:8080/api/v1/fabric
//	curl localhost:8080/api/v1/fabric/telemetry
//	curl localhost:8080/api/v1/fabric/anomalies
//	curl "localhost:8080/api/v1/fabric/events?since=0"
//	curl localhost:8080/metrics
//	# the analyzers' findings the anomalies come from
//	curl "localhost:8080/api/v1/telemetry/findings?follow=1"
//	# the durable telemetry stream (with -fabric-telem)
//	curl -o fabric.strec localhost:8080/api/v1/telemetry/stream
//	# digital-twin replay of a recorded stream with a what-if failure
//	curl -X POST --data-binary @trace.strec "localhost:8080/api/v1/replay?fail_link=3"
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"stardust/internal/cluster"
	"stardust/internal/mgmt"
	_ "stardust/internal/scenarios"
	"stardust/internal/sim"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	clusterSelf := flag.String("cluster-self", "", "this node's advertised base URL (e.g. http://10.0.0.1:8080)")
	clusterPeers := flag.String("cluster-peers", "", "comma-separated base URLs of every ring member, self included")
	clusterVNodes := flag.Int("cluster-vnodes", 0, "virtual ring points per node (0 = default)")
	queueDepth := flag.Int("queue-depth", 64, "bounded run-queue capacity")
	queueWorkers := flag.Int("queue-workers", 2, "concurrent scenario runs")
	runWorkers := flag.Int("run-workers", 0, "parallel instances per run (0 = all CPUs)")
	fabricK := flag.Int("fabric-k", 4, "managed fabric size (handed to topo.ByName, 0 = no live fabric)")
	fabricTopo := flag.String("fabric-topo", "", "managed fabric topology: clos (default), sshuffle, star, or a full topo spec string")
	fabricShards := flag.Int("fabric-shards", 1, "event-loop shards of the managed fabric's parsim engine (0 and 1 both mean one; at most the graph's devices)")
	fabricLoad := flag.Float64("fabric-load", 0.3, "offered load fraction on the managed fabric")
	transportHostsPer := flag.Int("transport-hosts-per", 0, "run the sharded Stardust transport overlay with N hosts per FA (TCP permutation load, telemetry at /api/v1/transport; 0 = raw cell injectors)")
	telem := flag.Bool("fabric-telem", false, "record the managed fabric's telemetry windows as a STREC1 stream (serves /api/v1/telemetry/stream)")
	telemCapMB := flag.Int("fabric-telem-cap-mb", 64, "in-memory cap for the recorded telemetry stream, in MiB")
	chaosMs := flag.Int("chaos-every-ms", 0, "fail one random link every N sim-ms (0 = no chaos)")
	healMs := flag.Int("heal-after-ms", 5, "chaos-failed links recover after N sim-ms")
	scrapeUs := flag.Int("scrape-every-us", 1000, "telemetry scrape period in sim-us: one window of analysis, series and recording")
	stepMs := flag.Int("sim-step-ms", 1, "sim time advanced per pacing tick, in ms")
	tickMs := flag.Int("tick-wall-ms", 100, "wall-clock pacing tick, in ms")
	seed := flag.Int64("seed", 1, "fabric traffic/chaos RNG seed")
	flag.Parse()

	q := mgmt.NewRunQueue(*queueDepth, *queueWorkers, *runWorkers)
	defer q.Shutdown()

	var fr *mgmt.FabricRun
	if *fabricK > 0 {
		var err error
		fr, err = mgmt.NewFabricRun(mgmt.FabricRunConfig{
			K:                 *fabricK,
			Topo:              *fabricTopo,
			Load:              *fabricLoad,
			FailEvery:         sim.Time(*chaosMs) * sim.Millisecond,
			HealAfter:         sim.Time(*healMs) * sim.Millisecond,
			Seed:              *seed,
			Shards:            *fabricShards,
			TransportHostsPer: *transportHostsPer,
			ScrapeEvery:       sim.Time(*scrapeUs) * sim.Microsecond,
			Telem:             *telem,
			TelemCap:          *telemCapMB << 20,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "stardustd:", err)
			os.Exit(1)
		}
		log.Printf("managing %s", fr)
		// Pace the live fabric: advance sim-step-ms of simulated time per
		// wall tick, forever. All HTTP reads go through the controller's
		// snapshots, never the simulator.
		go func() {
			step := sim.Time(*stepMs) * sim.Millisecond
			tick := time.NewTicker(time.Duration(*tickMs) * time.Millisecond)
			defer tick.Stop()
			for range tick.C {
				fr.Advance(step)
			}
		}()
	}

	hs := mgmt.NewServer(q, fr)
	if *clusterPeers != "" {
		if *clusterSelf == "" {
			fmt.Fprintln(os.Stderr, "stardustd: -cluster-peers requires -cluster-self")
			os.Exit(1)
		}
		node, err := cluster.New(cluster.Config{
			Self:   *clusterSelf,
			Peers:  strings.Split(*clusterPeers, ","),
			VNodes: *clusterVNodes,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "stardustd:", err)
			os.Exit(1)
		}
		hs.SetCluster(node)
		log.Printf("clustered: self=%s ring=%v", node.Self(), node.Ring().Nodes())
	}
	// Every connection timeout set (a bare http.Server has none, so one
	// stalled client per goroutine could hold connections forever); the
	// NDJSON streaming endpoints extend their own write deadline per tick.
	srv := mgmt.NewHTTPServer(*addr, hs, mgmt.HTTPTimeouts{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		log.Print("shutting down")
		srv.Close()
	}()
	log.Printf("stardustd serving on %s (queue depth %d, %d run workers)", *addr, *queueDepth, *queueWorkers)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "stardustd:", err)
		os.Exit(1)
	}
}

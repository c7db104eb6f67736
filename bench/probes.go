package main

// The ladder's probes: each is an isolated, fixed-count micro-run of one
// layer's public API, wrapped in a span. The rungs nest — a cell-hop
// contains a queue+pipe hop contains kernel events — so a layer's own
// cost is read by subtracting the rung below.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"time"

	"stardust/internal/distsim"
	"stardust/internal/engine"
	"stardust/internal/fabric"
	"stardust/internal/loadgen"
	"stardust/internal/mgmt"
	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/sim"
	"stardust/internal/telemetry"
)

// probePktBytes is the packet size of the transport probes.
const probePktBytes = 4096

// spanned runs fn inside a root span called name.
func spanned(tr *Recorder, name string, fn func()) {
	id := tr.Start(name, 0, -1)
	fn()
	tr.End(id)
}

type noop struct{}

func (noop) Act(uint64) {}

// probeKernel is the lowest rung: schedule and execute no-op actions
// with at most 512 pending.
func probeKernel(tr *Recorder, sz sizes) (nsPerEvent, allocsPerEvent float64) {
	n := 4_000_000 / sz.probeScale
	s := sim.New()
	run := func(from, count int) {
		for i := from; i < from+count; i++ {
			s.AtAction(sim.Time(i)*sim.Nanosecond, noop{}, 0)
			if s.Pending() > 512 {
				s.RunUntil(sim.Time(i) * sim.Nanosecond)
			}
		}
		s.Run()
	}
	run(0, n/8) // grow the kernel's buckets before measuring
	spanned(tr, "probe sim.AtAction+Run", func() {
		nsPerEvent, allocsPerEvent = measure(n, func() { run(n/8, n) })
	})
	return nsPerEvent, allocsPerEvent
}

// probeHop sends packets through queue -> pipe -> queue -> sink and
// reports the cost of one queue+pipe hop (two per packet).
func probeHop(tr *Recorder, sz sizes) (nsPerHop, allocsPerHop float64) {
	n := 1_000_000 / sz.probeScale
	s := sim.New()
	q1 := netsim.NewQueue(s, "q1", 100e9, 1<<20, 0)
	q2 := netsim.NewQueue(s, "q2", 100e9, 1<<20, 0)
	var sink netsim.Counter
	route := []netsim.Handler{q1, netsim.NewPipe(s, sim.Microsecond), q2, &sink}
	pkt := 1500
	gap := sim.Time(float64(pkt*8) / 100e9 * float64(sim.Second))
	run := func(from, count int) {
		for i := from; i < from+count; i++ {
			p := netsim.NewPacket()
			p.Size = pkt
			p.SetRoute(route)
			s.AtAction(sim.Time(i)*gap, p, 0)
			if s.Pending() > 512 {
				s.RunUntil(sim.Time(i) * gap)
			}
		}
		s.Run()
	}
	run(0, n/8)
	spanned(tr, "probe netsim queue+pipe", func() {
		nsPerHop, allocsPerHop = measure(2*n, func() { run(n/8, n) })
	})
	return nsPerHop, allocsPerHop
}

// pktSource feeds one host's flow with pooled 4 KB packets.
type pktSource struct {
	sm    *sim.Simulator
	route []netsim.Handler
	gap   sim.Time
	quota int
}

func (j *pktSource) Act(uint64) {
	if j.quota <= 0 {
		return
	}
	j.quota--
	p := netsim.NewPacket()
	p.Size = probePktBytes
	p.SetRoute(j.route)
	p.SendOn()
	if j.quota > 0 {
		j.sm.AfterAction(j.gap, j, 0)
	}
}

// probeTransport moves 4 KB packets at half the host rate through the
// whole Stardust transport (NIC queue, VOQ, credit loop, fragmentation,
// per-link K=4 fabric, reassembly) with no TCP endpoints: the solo
// StardustNet when shards is 0, the ShardedStardustNet otherwise.
func probeTransport(tr *Recorder, sz sizes, shards int) (nsPerPkt float64, err error) {
	cl, err := fabric.ClosFor(4)
	if err != nil {
		return 0, err
	}
	const hostsPer = 2
	hosts := cl.NumFA * hostsPer
	fcfg := fabric.DefaultConfig(netsim.Bps(10e9*1.05), sim.Microsecond, 1)
	sdc := netsim.DefaultStardust(10e9, cl.FAUplinks, sim.Microsecond)

	var (
		route   func(src, dst int) []netsim.Handler
		hostSim func(h int) *sim.Simulator
		now     func() sim.Time
		advance func(until sim.Time)
		drops   func() uint64
	)
	if shards == 0 {
		s := sim.New()
		sd, err := netsim.NewStardustNet(s, sdc, hosts, hostsPer)
		if err != nil {
			return 0, err
		}
		fn, err := fabric.New(s, fcfg, cl)
		if err != nil {
			return 0, err
		}
		fn.OnDeliver = sd.DeliverCell
		sd.UseFabric(fn)
		route, hostSim = sd.Route, func(int) *sim.Simulator { return s }
		now, advance, drops = s.Now, s.RunUntil, fn.Drops
	} else {
		eng := parsim.New(parsim.Config{Shards: shards, Lookahead: sim.Microsecond})
		fn, err := fabric.NewSharded(eng, fcfg, cl, nil)
		if err != nil {
			return 0, err
		}
		sd, err := netsim.NewShardedStardustNet(fn, sdc, hosts, hostsPer)
		if err != nil {
			return 0, err
		}
		route, hostSim = sd.Route, sd.HostSim
		now, advance, drops = eng.Now, eng.Run, sd.TotalDrops
	}

	gap := 2 * sim.Time(float64(probePktBytes*8)/10e9*float64(sim.Second))
	sinks := make([]netsim.Counter, hosts)
	srcs := make([]*pktSource, hosts)
	for h := range srcs {
		srcs[h] = &pktSource{sm: hostSim(h), route: append(route(h, (h+3)%hosts), &sinks[h]), gap: gap}
	}
	delivered := func() (d uint64) {
		for i := range sinks {
			d += sinks[i].Packets
		}
		return d
	}
	run := func(perHost int) {
		for h, j := range srcs {
			j.quota = perHost
			j.sm.AtAction(now()+sim.Time(h)*gap/sim.Time(hosts), j, 0)
		}
		advance(now() + sim.Time(perHost+2)*gap + sim.Millisecond)
	}
	run(32) // warm the pools, rings and mailboxes
	warm := delivered()
	perHost := 200_000 / sz.probeScale / hosts
	name := "probe netsim.StardustNet"
	if shards > 0 {
		name = "probe netsim.ShardedStardustNet"
	}
	spanned(tr, name, func() {
		nsPerPkt, _ = measure(perHost*hosts, func() { run(perHost) })
	})
	if got := delivered() - warm; got != uint64(perHost*hosts) || drops() != 0 {
		return 0, fmt.Errorf("%s: delivered %d of %d packets, %d drops", name, got, perHost*hosts, drops())
	}
	return nsPerPkt, nil
}

// probeEmptyWindow runs a two-shard engine with nothing to do: the cost
// of one window's barrier and mailbox flush.
func probeEmptyWindow(tr *Recorder, sz sizes) (nsPerWindow float64) {
	windows := 100_000 / sz.probeScale
	eng := parsim.New(parsim.Config{Shards: benchShards, Lookahead: sim.Microsecond})
	spanned(tr, "probe parsim.Run empty", func() {
		nsPerWindow, _ = measure(windows, func() { eng.Run(sim.Time(windows) * sim.Microsecond) })
	})
	return nsPerWindow
}

// probeCodec captures real cross-shard mail from a K=4 two-shard model
// (stepping only shard 0, the way a distsim peer does) and measures one
// EncodeMail + DecodeMail round trip.
func probeCodec(tr *Recorder, sz sizes) (nsPerMail float64, err error) {
	m, err := distsim.NewModel(fabricSpec(4, "clos", 1, benchShards, sim.Millisecond, 0.5))
	if err != nil {
		return 0, err
	}
	var mails []parsim.Mail
	owned := []bool{true, false}
	for w := 0; w < 1000 && len(mails) < 256; w++ {
		m.Eng.StepOwned(owned, func(src, dst int, mail parsim.Mail) { mails = append(mails, mail) })
	}
	if len(mails) == 0 {
		return 0, fmt.Errorf("probe fabric codec: no cross-shard mail captured")
	}
	rounds := 400_000 / sz.probeScale / len(mails)
	spanned(tr, "probe fabric.EncodeMail+DecodeMail", func() {
		nsPerMail, _ = measure(rounds*len(mails), func() {
			for r := 0; r < rounds && err == nil; r++ {
				for i := range mails {
					// Encoding consumes the action; decoding yields a fresh
					// one for the next round.
					mail := &mails[i]
					kind, payload, eerr := m.Net.EncodeMail(*mail)
					if eerr != nil {
						err = eerr
						return
					}
					if mail.Act, _, err = m.Net.DecodeMail(kind, mail.Lane, payload); err != nil {
						return
					}
				}
			}
		})
	})
	return nsPerMail, err
}

// probeCapture measures one telemetry scrape of a loaded K=4 fabric:
// read every link direction, delta-encode the window, emit events.
func probeCapture(tr *Recorder, sz sizes) (nsPerWindow float64) {
	s := sim.New()
	cl, err := fabric.ClosFor(4)
	if err != nil {
		return 0
	}
	n, err := fabric.New(s, fabric.DefaultConfig(10e9, sim.Microsecond, 1), cl)
	if err != nil {
		return 0
	}
	for i := 0; i < 4096; i++ {
		s.At(sim.Time(i/8)*2*sim.Microsecond, func() {
			c := netsim.NewPacket()
			c.Size = 512
			n.Inject(c, i%8, (i+3)%8)
		})
	}
	s.Run()
	w, err := telemetry.NewWriter(io.Discard, telemetry.StreamHeader{Dirs: 2 * n.NumLinks(), K: 4, ScrapePs: sim.Microsecond})
	if err != nil {
		return 0
	}
	rec := telemetry.NewRecorder(w, n, nil, sim.Microsecond)
	at := sim.Time(0)
	capture := func(count int) {
		for i := 0; i < count; i++ {
			at += sim.Microsecond
			rec.Capture(at)
		}
	}
	capture(3) // first captures grow the snapshot and encode buffers
	windows := 200_000 / sz.probeScale
	spanned(tr, "probe telemetry.Recorder.Capture", func() {
		nsPerWindow, _ = measure(windows, func() { capture(windows) })
	})
	return nsPerWindow
}

// probeRead decodes a recorded STREC1 stream window by window.
func probeRead(tr *Recorder, stream []byte) (mbPerS float64, err error) {
	const passes = 3
	spanned(tr, "probe telemetry.Reader.Next", func() {
		t0 := time.Now()
		for p := 0; p < passes && err == nil; p++ {
			rd := telemetry.NewReader(bytes.NewReader(stream))
			for err == nil {
				_, _, err = rd.Next()
			}
			if err == io.EOF {
				err = nil
			}
		}
		mbPerS = float64(passes*len(stream)) / 1e6 / time.Since(t0).Seconds()
	})
	return mbPerS, err
}

// durationsP50 returns the median of d in microseconds.
func durationsP50(d []time.Duration) float64 {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[len(d)/2].Nanoseconds()) / 1e3
}

// probeEngine measures a bare engine run of the served scenario.
func probeEngine(tr *Recorder, sz sizes, l map[string]float64) error {
	req := mgmt.RunRequest{Scenario: serveScenario, Seed: 1}
	out, err := directRun(req)
	if err != nil {
		return err
	}
	l["engine.emit_bytes"] = float64(len(out))
	runs := max(1, 400/sz.probeScale)
	var ns float64
	spanned(tr, "probe engine.Run", func() {
		ns, _ = measure(runs, func() {
			for i := 0; i < runs && err == nil; i++ {
				_, err = engine.Run(engine.Options{Seed: 1, Format: "json", Out: io.Discard},
					[]engine.Job{{Scenario: serveScenario, Seed: 1}})
			}
		})
	})
	l["engine.run_overhead_us"] = ns / 1e3
	return err
}

// probeQueue measures the run queue with no HTTP and no cluster around
// it: content addressing, and Submit+Wait of distinct runs with the
// queue-wait / run split the jobs' own timestamps give.
func probeQueue(tr *Recorder, sz sizes, l map[string]float64) error {
	keys := 200_000 / sz.probeScale
	spanned(tr, "probe mgmt.RunRequest.CacheKey", func() {
		l["mgmt.cachekey_ns"], _ = measure(keys, func() {
			for i := 0; i < keys; i++ {
				mgmt.RunRequest{Scenario: serveScenario, Seed: int64(i)}.CacheKey()
			}
		})
	})
	q := mgmt.NewRunQueue(64, 2, 0)
	defer q.Shutdown()
	runs := max(3, 400/sz.probeScale)
	total, wait, run := make([]time.Duration, runs), make([]time.Duration, runs), make([]time.Duration, runs)
	var err error
	spanned(tr, "probe mgmt.RunQueue.Submit+Wait", func() {
		for i := 0; i < runs; i++ {
			t0 := time.Now()
			job, _, serr := q.Submit(mgmt.RunRequest{Scenario: serveScenario, Seed: int64(i + 1)}, "bench")
			if serr != nil {
				err = serr
				return
			}
			done, ok := q.Wait(job.ID, 10*time.Second)
			total[i] = time.Since(t0)
			if !ok || done.State != mgmt.JobDone {
				err = fmt.Errorf("probe run queue: job %s ended %q", job.ID, done.State)
				return
			}
			wait[i], run[i] = done.Started.Sub(done.Submitted), done.Finished.Sub(done.Started)
		}
	})
	if err != nil {
		return err
	}
	l["mgmt.submit_local_us"] = durationsP50(total)
	l["mgmt.queue_wait_p50_us"] = durationsP50(wait)
	l["mgmt.run_p50_us"] = durationsP50(run)
	return nil
}

// probeCluster measures the ring's own costs on the live ring: owner
// lookup, and a forward and a peer fetch of a key that is already
// cached at its owner, issued from a node that does not own it.
func probeCluster(tr *Recorder, sz sizes, rg *ring, seed int64, l map[string]float64) error {
	ringOf := rg.nodes[0].node.Ring()
	req := mgmt.RunRequest{Scenario: serveScenario, Seed: seed}
	for ringOf.Owner(req.CacheKey()) == rg.nodes[0].node.Self() {
		req.Seed++
	}
	// Submitting through node 0 forwards to the owner and runs there.
	if o := rg.submit(nil, 0, 0, 0, req); o.err != nil {
		return o.err
	}
	key := req.CacheKey()
	lookups := 400_000 / sz.probeScale
	spanned(tr, "probe cluster.Ring.Owner", func() {
		l["cluster.owner_ns"], _ = measure(lookups, func() {
			for i := 0; i < lookups; i++ {
				ringOf.Owner(key)
			}
		})
	})
	calls := max(3, 1000/sz.probeScale)
	forward, fetch := make([]time.Duration, calls), make([]time.Duration, calls)
	ctx := context.Background()
	var err error
	spanned(tr, "probe cluster.Node.ForwardSubmit", func() {
		for i := 0; i < calls && err == nil; i++ {
			t0 := time.Now()
			_, err = rg.nodes[0].node.ForwardSubmit(ctx, req, "bench")
			forward[i] = time.Since(t0)
		}
	})
	spanned(tr, "probe cluster.Node.FetchResult", func() {
		for i := 0; i < calls && err == nil; i++ {
			t0 := time.Now()
			_, _, err = rg.nodes[0].node.FetchResult(ctx, key)
			fetch[i] = time.Since(t0)
		}
	})
	if err != nil {
		return err
	}
	l["cluster.forward_us"] = durationsP50(forward)
	l["cluster.fetch_us"] = durationsP50(fetch)
	return nil
}

// probeHit measures a cache hit below the socket: the queue's lookup,
// and the whole handler into an in-memory response.
func probeHit(tr *Recorder, sz sizes, n *ringNode, req mgmt.RunRequest, l map[string]float64) {
	key := req.CacheKey()
	lookups := 2_000_000 / sz.probeScale
	spanned(tr, "probe mgmt.RunQueue.ResultByKey", func() {
		l["mgmt.hit_local_ns"], _ = measure(lookups, func() {
			for i := 0; i < lookups; i++ {
				n.q.ResultByKey(key)
			}
		})
	})
	calls := 100_000 / sz.probeScale
	hr := httptest.NewRequest(http.MethodGet, "/api/v1/cache/"+key, nil)
	var ns float64
	spanned(tr, "probe mgmt.Server.ServeHTTP", func() {
		ns, _ = measure(calls, func() {
			for i := 0; i < calls; i++ {
				n.srv.ServeHTTP(httptest.NewRecorder(), hr)
			}
		})
	})
	l["mgmt.hit_handler_us"] = ns / 1e3
}

// probeLoadgen points the load generator at a handler that only writes
// constant bytes of a result's size: what the generator, the socket and
// net/http contribute to a cache hit's latency with no mgmt code at all.
func probeLoadgen(tr *Recorder, sz sizes) (meanUs float64, err error) {
	body, err := directRun(mgmt.RunRequest{Scenario: serveScenario, Seed: 1})
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	size := strconv.Itoa(len(body))
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", size)
		w.Write(body)
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	var report loadgen.Report
	spanned(tr, "probe loadgen.Run", func() {
		report, err = loadgen.Run(context.Background(), loadgen.Config{
			Targets:     []string{"http://" + ln.Addr().String()},
			Path:        "/",
			Clients:     benchClients,
			Duration:    2 * sz.hitSlice,
			Warmup:      sz.hitSlice / 2,
			DialStagger: time.Nanosecond,
		})
	})
	if err != nil {
		return 0, err
	}
	if report.Requests == 0 || report.Errors != 0 {
		return 0, fmt.Errorf("probe loadgen: %d requests, %d errors", report.Requests, report.Errors)
	}
	// Closed loop, no think time: mean latency = clients / throughput.
	return benchClients / report.Throughput * 1e6, nil
}

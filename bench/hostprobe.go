package main

// The host probe. The reference host is a small shared VM whose speed
// wanders by tens of percent over seconds to minutes (neighbours on the
// same cores, cache and memory), far more than the bounds this benchmark
// has to resolve, and the wander is the same for every repetition inside
// one run, so medians over repetitions do not remove it. The probe is a
// fixed synthetic kernel, independent of every package under test, run
// between repetitions; every time-based end-to-end metric is reported
// per unit of probe time, scaled back to seconds by probeReference. A
// change to the repository moves a workload's time and not the probe's;
// a slow minute on the host moves both and cancels.

import (
	"fmt"
	"io"
	"net"
	"syscall"
	"time"
	"unsafe"
)

// probeReference is what one probe run takes on the quiet reference
// host: with the host at that speed the reported seconds are the
// measured seconds.
const probeReference = 0.025

// probeRuns is how many probe runs make one sample point of a
// measuring pass.
const probeRuns = 3

type probeEvent struct{ at, seq uint64 }

const (
	probeTableBytes = 4 << 20  // misses L2, mostly hits L3
	probeWideBytes  = 32 << 20 // misses every cache
	// probeRSSMiB is resident for the life of the process and is taken
	// off the peak RSS the benchmark reports.
	probeRSSMiB = (probeTableBytes + probeWideBytes) >> 20
)

// hostProbe holds the probe's working sets. They are mapped outside the
// Go heap, so they neither move the collector's pacing for the workload
// nor get collected, and a run allocates nothing.
type hostProbe struct {
	heap   []probeEvent
	mapped []byte
	table  []uint64
	wide   []uint64
	conn   net.Conn // loopback connection to the echo goroutine
	echo   chan struct{}
	sink   uint64
}

func newHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	defer ln.Close()
	mapped, err := syscall.Mmap(-1, 0, probeTableBytes+probeWideBytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host probe: mmap: %w", err)
	}
	for i := 0; i < len(mapped); i += 4096 {
		mapped[i] = 1 // make every page resident now, not during a run
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mapped[0])), len(mapped)/8)
	p := &hostProbe{
		heap:   make([]probeEvent, 0, 4096),
		mapped: mapped,
		table:  words[:probeTableBytes/8],
		wide:   words[probeTableBytes/8:],
		echo:   make(chan struct{}),
	}
	// Dial first: the kernel completes the handshake into the listener's
	// backlog, so the Accept below cannot block.
	fail := func(err error) (*hostProbe, error) {
		syscall.Munmap(mapped)
		return nil, fmt.Errorf("host probe: %w", err)
	}
	if p.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return fail(err)
	}
	peer, err := ln.Accept()
	if err != nil {
		p.conn.Close()
		return fail(err)
	}
	go func() {
		defer close(p.echo)
		defer peer.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(peer, buf); err != nil {
				return // Close hung up
			}
			if _, err := peer.Write(buf); err != nil {
				return
			}
		}
	}()
	return p, nil
}

// Close hangs up, waits for the echo goroutine and unmaps the tables.
func (p *hostProbe) Close() {
	p.conn.Close()
	<-p.echo
	syscall.Munmap(p.mapped)
}

func (p *hostProbe) less(i, j int) bool {
	a, b := p.heap[i], p.heap[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (p *hostProbe) push(e probeEvent) {
	p.heap = append(p.heap, e)
	for i := len(p.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if p.less(parent, i) {
			break
		}
		p.heap[parent], p.heap[i] = p.heap[i], p.heap[parent]
		i = parent
	}
}

func (p *hostProbe) pop() probeEvent {
	top := p.heap[0]
	n := len(p.heap) - 1
	p.heap[0] = p.heap[n]
	p.heap = p.heap[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && p.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && p.less(r, least) {
			least = r
		}
		if least == i {
			return top
		}
		p.heap[least], p.heap[i] = p.heap[i], p.heap[least]
		i = least
	}
}

// run executes the probe once and returns its duration in seconds. Its
// three parts take about a third each and are slowed by the three things
// a busy neighbour takes away: an event-queue churn with cache-sized
// random access (core and cache), random access over 32 MiB (memory),
// and a loopback ping-pong (system calls and goroutine wake-ups).
func (p *hostProbe) run() (float64, error) {
	t0 := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	p.heap = p.heap[:0]
	for i := uint64(0); i < 2048; i++ {
		p.push(probeEvent{next() & 0xffff, i})
	}
	for i := uint64(0); i < 60_000; i++ {
		e := p.pop()
		r := next()
		p.table[r&uint64(len(p.table)-1)] += e.at
		p.push(probeEvent{e.at + r&0xfff, i})
	}
	for i := 0; i < 500_000; i++ {
		r := next()
		p.wide[r&uint64(len(p.wide)-1)] += r
	}
	p.sink += p.table[0] + p.wide[0]
	var buf [64]byte
	for i := 0; i < 1300; i++ {
		if _, err := p.conn.Write(buf[:]); err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
		if _, err := io.ReadFull(p.conn, buf[:]); err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
	}
	return time.Since(t0).Seconds(), nil
}

// sample appends one sample point (runs probe runs) to samples.
func (p *hostProbe) sample(samples []float64, runs int) ([]float64, error) {
	for i := 0; i < runs; i++ {
		s, err := p.run()
		if err != nil {
			return samples, err
		}
		samples = append(samples, s)
	}
	return samples, nil
}

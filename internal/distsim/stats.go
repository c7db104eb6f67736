// Runtime observability of a distributed run. The coordinator counts the
// windows it accounts; everything about time and traffic is measured where
// it happens — on the peers, which since v4 are the only ones on the
// critical path — and shipped to the coordinator once per flush interval
// in a STATS frame: how each peer's wall time splits into stepping its
// shards, running the codec, and waiting for each neighbour's XCHG frame,
// and how each of those waits was spent — polling the socket or parked in
// the netpoller (poll.go). CoordStats is the snapshot API the serving tier
// renders on /metrics.
package distsim

import (
	"encoding/binary"
	"fmt"
	"sync"

	"stardust/internal/telemetry"
)

// barrierBounds are the mesh-wait histogram's bucket edges in seconds
// (10µs .. ~0.6s), fixed so a peer can bucket locally and ship counts.
var barrierBounds = telemetry.ExpBuckets(10e-6, 4, 9)

// peerClock is one peer's accounting since its last flush: nanoseconds
// spent stepping, in the codec and waiting per neighbour, what the socket
// reads behind those waits did, the per-window total wait bucketed against
// barrierBounds, and the frames and bytes the peer wrote (XCHG to its
// neighbours, DONE and STATS to the coordinator).
type peerClock struct {
	windows    uint64
	stepNs     uint64
	codecNs    uint64
	mailFrames uint64 // XCHG frames that carried at least one entry
	rawBytes   uint64
	wireBytes  uint64
	waitNs     []uint64   // indexed by neighbour id, own slot unused
	poll       []linkPoll // likewise
	waitHist   []uint64   // len(barrierBounds)+1
}

// linkPoll is one mesh link's read record for the interval, and whether
// the link polls as the interval ends.
type linkPoll struct {
	pollCounts
	polling bool
}

func newPeerClock(npeers int) *peerClock {
	return &peerClock{
		waitNs:   make([]uint64, npeers),
		poll:     make([]linkPoll, npeers),
		waitHist: make([]uint64, len(barrierBounds)+1),
	}
}

// observeWait buckets one window's total mesh wait.
func (c *peerClock) observeWait(ns uint64) {
	v, i := float64(ns)*1e-9, 0
	for i < len(barrierBounds) && v > barrierBounds[i] {
		i++
	}
	c.waitHist[i]++
}

func (c *peerClock) reset() {
	*c = peerClock{waitNs: c.waitNs, poll: c.poll, waitHist: c.waitHist}
	clear(c.waitNs)
	clear(c.poll)
	clear(c.waitHist)
}

// appendStats encodes the STATS frame body:
//
//	STATS := uvarint windows | uvarint stepNs | uvarint codecNs |
//	         uvarint mailFrames | uvarint rawBytes | uvarint wireBytes |
//	         uvarint npeers | npeers * (uvarint waitNs | uvarint tries |
//	                  uvarint ready | uvarint parks | u8 polling) |
//	         uvarint nbuckets | nbuckets * uvarint count
func (c *peerClock) appendStats(b []byte) []byte {
	for _, v := range []uint64{c.windows, c.stepNs, c.codecNs, c.mailFrames, c.rawBytes, c.wireBytes} {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(c.waitNs)))
	for q, v := range c.waitNs {
		b = binary.AppendUvarint(b, v)
		lp := c.poll[q]
		b = binary.AppendUvarint(b, lp.tries)
		b = binary.AppendUvarint(b, lp.ready)
		b = binary.AppendUvarint(b, lp.parks)
		b = append(b, 0)
		if lp.polling {
			b[len(b)-1] = 1
		}
	}
	b = binary.AppendUvarint(b, uint64(len(c.waitHist)))
	for _, v := range c.waitHist {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// parseStats decodes a STATS frame into c, which is sized for the run.
func (c *peerClock) parseStats(b []byte) error {
	var np, nb uint64
	b, err := uvarints(b, "STATS", &c.windows, &c.stepNs, &c.codecNs, &c.mailFrames, &c.rawBytes, &c.wireBytes, &np)
	if err != nil {
		return err
	}
	if np != uint64(len(c.waitNs)) {
		return fmt.Errorf("distsim: STATS names %d peers, run has %d", np, len(c.waitNs))
	}
	for i := range c.waitNs {
		lp := &c.poll[i]
		if b, err = uvarints(b, "STATS", &c.waitNs[i], &lp.tries, &lp.ready, &lp.parks); err != nil {
			return err
		}
		if len(b) == 0 || b[0] > 1 {
			return fmt.Errorf("distsim: bad STATS poll flag")
		}
		lp.polling, b = b[0] == 1, b[1:]
	}
	if b, err = uvarints(b, "STATS", &nb); err != nil {
		return err
	}
	if nb != uint64(len(c.waitHist)) {
		return fmt.Errorf("distsim: STATS carries %d wait buckets, want %d", nb, len(c.waitHist))
	}
	for i := range c.waitHist {
		if b, err = uvarints(b, "STATS", &c.waitHist[i]); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("distsim: STATS has %d trailing bytes", len(b))
	}
	return nil
}

// CoordStats accumulates distributed-run metrics across runs. Safe for
// concurrent use; Serve's per-peer readers update it while HTTP handlers
// read snapshots.
type CoordStats struct {
	mu           sync.Mutex
	runs         uint64
	windows      uint64
	telemWindows uint64
	mailFrames   uint64 // XCHG frames carrying mail, as the peers report them
	mailEntries  uint64
	rawBytes     uint64 // frame bytes the peers wrote, before compression
	wireBytes    uint64 // the same frames as they went on the wire
	peers        []peerTotals
	barrier      *telemetry.Histogram
	mailBytes    *telemetry.Histogram
}

// peerTotals is one peer slot's accumulated clock. waitedOn is the time
// the other peers spent blocked on this one's XCHG frames — the number
// that names a straggler.
type peerTotals struct {
	stepNs, codecNs, waitNs, waitedOnNs uint64
	// Its mesh reads, summed over its links; polling is how many of the
	// links polled when it last reported.
	reads   pollCounts
	polling int
}

// NewCoordStats builds an empty stats accumulator.
func NewCoordStats() *CoordStats {
	return &CoordStats{
		barrier: telemetry.NewHistogram(barrierBounds...),
		// Mail payload per window in bytes: 64B .. ~1MB.
		mailBytes: telemetry.NewHistogram(telemetry.ExpBuckets(64, 4, 8)...),
	}
}

// DefaultStats is the process-wide accumulator: Serve updates it when
// CoordConfig.Stats is nil, and stardustd's /metrics renders it.
var DefaultStats = NewCoordStats()

// PeerStats is where one peer slot's wall time went, in seconds, summed
// over every run this accumulator saw: Busy is stepping owned shards plus
// the mail codec, Wait is blocked on neighbours' XCHG frames, WaitedOn is
// what the other peers spent blocked on this one.
type PeerStats struct {
	Peer     int     `json:"peer"`
	Busy     float64 `json:"busy_seconds"`
	Step     float64 `json:"step_seconds"`
	Codec    float64 `json:"codec_seconds"`
	Wait     float64 `json:"wait_seconds"`
	WaitedOn float64 `json:"waited_on_seconds"`
	// How the mesh reads behind Wait went: PollReady found their bytes
	// without parking, Parks waited in the netpoller, PollTries is the
	// non-blocking attempts spent on both, PollingLinks how many of the
	// peer's mesh links polled when it last reported (the others have
	// backed off to parking at once).
	PollTries    uint64 `json:"poll_tries"`
	PollReady    uint64 `json:"poll_ready"`
	Parks        uint64 `json:"parks"`
	PollingLinks int    `json:"polling_links"`
}

// CoordStatsSnapshot is a point-in-time copy of the metrics.
type CoordStatsSnapshot struct {
	Runs             uint64  `json:"runs"`
	Windows          uint64  `json:"windows"`
	TelemetryWindows uint64  `json:"telemetry_windows"`
	MailFrames       uint64  `json:"mail_frames"`
	MailEntries      uint64  `json:"mail_entries"`
	RawBytes         uint64  `json:"raw_bytes"`
	WireBytes        uint64  `json:"wire_bytes"`
	CompressionRatio float64 `json:"compression_ratio"` // raw/wire, 0 until traffic flows
	// Peers is the per-peer wall-time split; Straggler the peer the others
	// waited on longest (-1 while nobody has waited).
	Peers     []PeerStats `json:"peers"`
	Straggler int         `json:"straggler"`
	// BarrierLatency is each peer's per-window mesh wait: the time between
	// sending its own XCHG frames and holding everyone else's.
	BarrierLatency  telemetry.HistSnapshot `json:"-"`
	WindowMailBytes telemetry.HistSnapshot `json:"-"`
}

// Snapshot copies the current counters.
func (s *CoordStats) Snapshot() CoordStatsSnapshot {
	s.mu.Lock()
	snap := CoordStatsSnapshot{
		Runs:             s.runs,
		Windows:          s.windows,
		TelemetryWindows: s.telemWindows,
		MailFrames:       s.mailFrames,
		MailEntries:      s.mailEntries,
		RawBytes:         s.rawBytes,
		WireBytes:        s.wireBytes,
		Peers:            make([]PeerStats, len(s.peers)),
		Straggler:        -1,
	}
	var worst uint64
	for p, t := range s.peers {
		snap.Peers[p] = PeerStats{
			Peer:     p,
			Busy:     float64(t.stepNs+t.codecNs) * 1e-9,
			Step:     float64(t.stepNs) * 1e-9,
			Codec:    float64(t.codecNs) * 1e-9,
			Wait:     float64(t.waitNs) * 1e-9,
			WaitedOn: float64(t.waitedOnNs) * 1e-9,

			PollTries:    t.reads.tries,
			PollReady:    t.reads.ready,
			Parks:        t.reads.parks,
			PollingLinks: t.polling,
		}
		if t.waitedOnNs > worst {
			worst, snap.Straggler = t.waitedOnNs, p
		}
	}
	s.mu.Unlock()
	if snap.WireBytes > 0 {
		snap.CompressionRatio = float64(snap.RawBytes) / float64(snap.WireBytes)
	}
	snap.BarrierLatency = s.barrier.Snapshot()
	snap.WindowMailBytes = s.mailBytes.Snapshot()
	return snap
}

// window records one window the coordinator accounted: the mail bytes and
// entries the peers exchanged in it.
func (s *CoordStats) window(mailBytes, entries int) {
	s.mu.Lock()
	s.windows++
	s.mailEntries += uint64(entries)
	s.mu.Unlock()
	s.mailBytes.Observe(float64(mailBytes))
}

// flushed folds one STATS frame from peer p into the totals.
func (s *CoordStats) flushed(p int, c *peerClock) {
	var wait uint64
	s.mu.Lock()
	for len(s.peers) < len(c.waitNs) {
		s.peers = append(s.peers, peerTotals{})
	}
	for q, ns := range c.waitNs {
		wait += ns
		s.peers[q].waitedOnNs += ns
	}
	t := &s.peers[p]
	t.stepNs += c.stepNs
	t.codecNs += c.codecNs
	t.waitNs += wait
	t.polling = 0
	for _, lp := range c.poll {
		t.reads.tries += lp.tries
		t.reads.ready += lp.ready
		t.reads.parks += lp.parks
		if lp.polling {
			t.polling++
		}
	}
	s.mailFrames += c.mailFrames
	s.rawBytes += c.rawBytes
	s.wireBytes += c.wireBytes
	s.mu.Unlock()
	s.barrier.Merge(c.waitHist, float64(wait)*1e-9)
}

func (s *CoordStats) telemWindow() {
	s.mu.Lock()
	s.telemWindows++
	s.mu.Unlock()
}

func (s *CoordStats) runDone() {
	s.mu.Lock()
	s.runs++
	s.mu.Unlock()
}

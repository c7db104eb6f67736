// Package fabricsim is the cell-level two-tier fabric simulator of §6.2
// (Fig 9): Fabric Adapters spraying fixed-size cells over a Clos of Fabric
// Elements, with per-link output queues, FCI feedback, and strict up-down
// routing.
//
// The simulator is time-slotted at "fabric cell time" granularity (the
// time to transmit one cell on a serial link, §4.2.1): every link forwards
// at most one cell per slot. Within a slot, pipeline stages execute from
// the last hop backwards, so each queue serves before it receives and a
// cell advances at most one hop per slot — the store-and-forward
// discipline whose stationary queue distribution matches the continuous
// M/D/1 model the paper validates against. The slotted structure is what
// lets the simulator cover the paper's full 256-adapter, 192-element
// configuration with enough samples to resolve 1e-7 tail probabilities.
package fabricsim

import (
	"fmt"
	"math/rand/v2"

	"stardust/internal/sim"
	"stardust/internal/stats"
)

// Config parameterizes a run.
type Config struct {
	NumFA     int // Fabric Adapters (paper: 256)
	FAUplinks int // links from each FA into tier 1 (paper: 32)
	NumFE1    int // first-tier elements (paper: 128)
	FE1Up     int // up-links per FE1 (paper: 64); FE1Down derived
	NumFE2    int // spine elements (paper: 64)

	Utilization float64 // raw-data fabric load, fraction of link rate (0..1.2+)

	CellBytes   int     // 256
	LinkBps     float64 // 50e9
	FiberMeters float64 // per-link length (paper: 100m)

	QueueCap   int  // per-link queue capacity in cells
	FCI        bool // enable congestion indication feedback (§4.2)
	FCIThresh  int  // queue depth that marks cells
	FCIBeta    float64
	FCIRecover float64
	FCIFloor   float64

	Slots       int // measured slots
	WarmupSlots int // slots before measurement starts
	Seed        int64
}

// Fig9Config returns the §6.2 topology at the given utilization.
func Fig9Config(util float64) Config {
	return Config{
		NumFA:       256,
		FAUplinks:   32,
		NumFE1:      128,
		FE1Up:       64,
		NumFE2:      64,
		Utilization: util,
		CellBytes:   256,
		LinkBps:     50e9,
		FiberMeters: 100,
		QueueCap:    256,
		FCI:         util > 1,
		FCIThresh:   40,
		FCIBeta:     0.004,
		FCIRecover:  0.00003,
		FCIFloor:    0.5,
		Slots:       30000,
		WarmupSlots: 3000,
		Seed:        1,
	}
}

// Scaled returns a proportionally smaller topology for tests and quick
// benchmarks (factor 4 = quarter scale).
func Scaled(util float64, factor int) Config {
	c := Fig9Config(util)
	c.NumFA /= factor
	c.FAUplinks /= factor
	c.NumFE1 /= factor
	c.FE1Up /= factor
	c.NumFE2 /= factor
	c.Slots /= 2
	return c
}

// Result carries the measured distributions.
type Result struct {
	Cfg Config

	SlotTime sim.Time // one fabric cell time
	// FixedLatency is the non-queueing traversal time added to the slotted
	// waits: fiber propagation over the four links of an up-down path.
	FixedLatency sim.Time

	Latency   *stats.Histogram // cell fabric-traversal latency (us)
	QueueHist *stats.Histogram // last-stage link queue depth (cells), sampled per slot

	CellsDelivered uint64
	CellsDropped   uint64
	CellsOffered   uint64
	MeanQueue      float64
	EffectiveUtil  float64 // delivered load on last-stage links
	ThrottleMean   float64 // mean FCI throttle at the end (1 = none)
}

type cellRec struct {
	born int32
	dst  uint16
}

// queue is a fixed-capacity ring buffer; all queues of a stage share one
// backing slab so the hot loop never allocates.
type queue struct {
	buf  []cellRec
	head int
	n    int
}

func newQueues(count, capacity int) []queue {
	slab := make([]cellRec, count*capacity)
	qs := make([]queue, count)
	for i := range qs {
		qs[i].buf = slab[i*capacity : (i+1)*capacity]
	}
	return qs
}

func (q *queue) len() int { return q.n }

// push stores c; the caller is responsible for checking capacity first.
func (q *queue) push(c cellRec) {
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = c
	q.n++
}

func (q *queue) pop() (cellRec, bool) {
	if q.n == 0 {
		return cellRec{}, false
	}
	c := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return c, true
}

type fabric struct {
	cfg     Config
	rng     *rand.Rand
	fe1Down int
	perFE2  int // parallel links per (FE1, FE2) pair

	// attachments[i] lists (fe1, downLink) for FA i's uplinks; linkOf
	// resolves (fe1, dstFA) to the fe1's down-link index (-1 if the FA is
	// not served by that element).
	attachFE1  [][]int32
	attachLink [][]int32
	linkOf     []int32 // [fe1*NumFA + fa]

	faUp     []queue // FA uplink serializers
	fe1Up    []queue // FE1 -> FE2
	fe2Down  []queue // FE2 -> FE1, one per pair group
	fe1DownQ []queue // FE1 -> FA (last stage)

	faSpray  []int
	fe1Spray []int
	fe2Spray []int

	throttle []float64
	acc      []float64
}

func newFabric(cfg Config) *fabric {
	f := &fabric{
		cfg:     cfg,
		rng:     rand.New(stats.Stream(cfg.Seed, "traffic")),
		fe1Down: cfg.NumFA * cfg.FAUplinks / cfg.NumFE1,
		perFE2:  cfg.FE1Up / cfg.NumFE2,
	}
	f.attachFE1 = make([][]int32, cfg.NumFA)
	f.attachLink = make([][]int32, cfg.NumFA)
	f.linkOf = make([]int32, cfg.NumFE1*cfg.NumFA)
	for i := range f.linkOf {
		f.linkOf[i] = -1
	}
	cnt := make([]int32, cfg.NumFE1)
	for i := 0; i < cfg.NumFA; i++ {
		for j := 0; j < cfg.FAUplinks; j++ {
			fe1 := int32((i*cfg.FAUplinks + j) % cfg.NumFE1)
			f.attachFE1[i] = append(f.attachFE1[i], fe1)
			f.attachLink[i] = append(f.attachLink[i], cnt[fe1])
			f.linkOf[int(fe1)*cfg.NumFA+i] = cnt[fe1]
			cnt[fe1]++
		}
	}
	f.faUp = newQueues(cfg.NumFA*cfg.FAUplinks, cfg.QueueCap)
	f.fe1Up = newQueues(cfg.NumFE1*cfg.FE1Up, cfg.QueueCap)
	f.fe2Down = newQueues(cfg.NumFE2*cfg.NumFE1, cfg.QueueCap*f.perFE2)
	f.fe1DownQ = newQueues(cfg.NumFE1*f.fe1Down, cfg.QueueCap)
	f.faSpray = make([]int, cfg.NumFA)
	f.fe1Spray = make([]int, cfg.NumFE1)
	f.fe2Spray = make([]int, cfg.NumFE2)
	f.throttle = make([]float64, cfg.NumFA)
	for i := range f.throttle {
		f.throttle[i] = 1
	}
	f.acc = make([]float64, cfg.NumFA)
	return f
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.NumFA < 2 || cfg.FAUplinks < 1 || cfg.NumFE1 < 1 || cfg.NumFE2 < 1 || cfg.FE1Up < 1 {
		return nil, fmt.Errorf("fabricsim: degenerate topology")
	}
	if cfg.NumFA*cfg.FAUplinks%cfg.NumFE1 != 0 || cfg.NumFE1*cfg.FE1Up%cfg.NumFE2 != 0 {
		return nil, fmt.Errorf("fabricsim: boundary capacities must divide evenly")
	}
	if cfg.FE1Up%cfg.NumFE2 != 0 {
		return nil, fmt.Errorf("fabricsim: FE1Up must be a multiple of NumFE2")
	}
	fb := newFabric(cfg)

	slotTime := sim.Time(float64(cfg.CellBytes*8) / cfg.LinkBps * float64(sim.Second))
	prop := sim.Time(cfg.FiberMeters * 5 * float64(sim.Nanosecond)) // 5 ns/m
	fixed := 4 * prop

	res := &Result{
		Cfg:          cfg,
		SlotTime:     slotTime,
		FixedLatency: fixed,
		Latency:      stats.NewHistogram(0, 50, 500), // microseconds
		QueueHist:    stats.NewHistogram(0, float64(cfg.QueueCap), cfg.QueueCap),
	}

	genRate := cfg.Utilization * float64(cfg.FAUplinks)
	totalSlots := cfg.WarmupSlots + cfg.Slots
	lastStageDeliveries := uint64(0)

	for slot := 0; slot < totalSlots; slot++ {
		measuring := slot >= cfg.WarmupSlots

		// Stage 5 (runs first): last-stage links deliver to FAs.
		for qi := range fb.fe1DownQ {
			c, ok := fb.fe1DownQ[qi].pop()
			if !ok {
				continue
			}
			if measuring {
				waited := slot - int(c.born)
				lat := sim.Time(waited)*slotTime + fixed
				res.Latency.Add(lat.Microseconds())
				res.CellsDelivered++
				lastStageDeliveries++
			}
		}

		// Stage 4: FE2 down-links move cells into last-stage queues.
		for s := 0; s < cfg.NumFE2; s++ {
			base := s * cfg.NumFE1
			for f := 0; f < cfg.NumFE1; f++ {
				for k := 0; k < fb.perFE2; k++ {
					c, ok := fb.fe2Down[base+f].pop()
					if !ok {
						break
					}
					link := fb.linkOf[f*cfg.NumFA+int(c.dst)]
					if link < 0 {
						panic("fabricsim: cell routed to non-serving FE1")
					}
					q := &fb.fe1DownQ[f*fb.fe1Down+int(link)]
					depth := q.len()
					if depth >= cfg.QueueCap {
						if measuring {
							res.CellsDropped++
						}
						continue
					}
					if cfg.FCI && depth >= cfg.FCIThresh {
						fb.throttle[c.dst] *= 1 - cfg.FCIBeta
						if fb.throttle[c.dst] < cfg.FCIFloor {
							fb.throttle[c.dst] = cfg.FCIFloor
						}
					}
					q.push(c)
				}
			}
		}

		// Stage 3: FE1 up-links move cells to spines; the spine picks one
		// of the destination's serving FE1s round-robin.
		for f := 0; f < cfg.NumFE1; f++ {
			for u := 0; u < cfg.FE1Up; u++ {
				c, ok := fb.fe1Up[f*cfg.FE1Up+u].pop()
				if !ok {
					continue
				}
				s := u % cfg.NumFE2
				at := fb.attachFE1[c.dst]
				pick := at[fb.fe2Spray[s]%len(at)]
				fb.fe2Spray[s]++
				q := &fb.fe2Down[s*cfg.NumFE1+int(pick)]
				if q.len() >= cfg.QueueCap*fb.perFE2 {
					if measuring {
						res.CellsDropped++
					}
					continue
				}
				q.push(c)
			}
		}

		// Stage 2: FA uplinks hand cells to tier 1, sprayed over up-links.
		for i := 0; i < cfg.NumFA; i++ {
			for j := 0; j < cfg.FAUplinks; j++ {
				c, ok := fb.faUp[i*cfg.FAUplinks+j].pop()
				if !ok {
					continue
				}
				f := int(fb.attachFE1[i][j])
				up := fb.fe1Spray[f]
				fb.fe1Spray[f] = (up + 1) % cfg.FE1Up
				q := &fb.fe1Up[f*cfg.FE1Up+up]
				if q.len() >= cfg.QueueCap {
					if measuring {
						res.CellsDropped++
					}
					continue
				}
				q.push(c)
			}
		}

		// Stage 1: credit-paced generation at the FAs (FCI throttles per
		// destination).
		for i := 0; i < cfg.NumFA; i++ {
			fb.acc[i] += genRate
			for fb.acc[i] >= 1 {
				fb.acc[i]--
				dst := fb.rng.IntN(cfg.NumFA - 1)
				if dst >= i {
					dst++
				}
				if cfg.FCI && fb.throttle[dst] < 1 && fb.rng.Float64() > fb.throttle[dst] {
					continue // credit withheld at the source
				}
				if measuring {
					res.CellsOffered++
				}
				up := fb.faSpray[i]
				fb.faSpray[i] = (up + 1) % cfg.FAUplinks
				q := &fb.faUp[i*cfg.FAUplinks+up]
				if q.len() >= cfg.QueueCap {
					if measuring {
						res.CellsDropped++
					}
					continue
				}
				q.push(cellRec{born: int32(slot), dst: uint16(dst)})
			}
		}

		// Sample last-stage queue depths (Fig 9 right).
		if measuring {
			for qi := range fb.fe1DownQ {
				res.QueueHist.Add(float64(fb.fe1DownQ[qi].len()))
			}
		}

		// FCI recovery.
		if cfg.FCI {
			for d := range fb.throttle {
				fb.throttle[d] += cfg.FCIRecover
				if fb.throttle[d] > 1 {
					fb.throttle[d] = 1
				}
			}
		}
	}

	res.MeanQueue = res.QueueHist.Mean()
	lastLinks := cfg.NumFE1 * fb.fe1Down
	res.EffectiveUtil = float64(lastStageDeliveries) / float64(cfg.Slots*lastLinks)
	var tsum float64
	for _, t := range fb.throttle {
		tsum += t
	}
	res.ThrottleMean = tsum / float64(len(fb.throttle))
	return res, nil
}

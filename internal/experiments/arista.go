package experiments

import (
	"fmt"

	"stardust/internal/core"
	"stardust/internal/sim"
	"stardust/internal/stats"
	"stardust/internal/topo"
)

// AristaConfig sizes the §6.1.2 single-tier system reproduction: a
// chassis-style network of Fabric Adapters and one tier of Fabric
// Elements, all host ports loaded at line rate. The paper's platform is 24
// Arad adapters (48x10GE each = 1152 ports) over 12 Fabric Elements; the
// default here is a scaled version with the same ratios.
type AristaConfig struct {
	NumFA        int
	PortsPerFA   int
	NumFE        int
	UplinksPerFA int
	PortGbps     float64
	LinkGbps     float64
	Packing      bool // Arad (§6.1.2) does not support packing
	Duration     sim.Time
	Seed         int64
}

// ScaledArista returns a scaled single-tier system: 6 FAs x 16 ports with
// a fabric speed-up of 1.0625 — the ratio at which variable-size 256B-max
// cells sustain line rate for 384B+ packets but not below, matching the
// paper's 1152-port measurement (§6.1.2).
func ScaledArista() AristaConfig {
	return AristaConfig{
		NumFA:        6,
		PortsPerFA:   16,
		NumFE:        17,
		UplinksPerFA: 17,
		PortGbps:     10,
		LinkGbps:     10,
		Packing:      false,
		Duration:     300 * sim.Microsecond,
		Seed:         1,
	}
}

// AristaRow is one packet-size measurement of the §6.1.2 experiment.
type AristaRow struct {
	PacketBytes int
	LineRatePct float64 // delivered / offered
	MinUs       float64 // port-to-port latency
	AvgUs       float64
	MaxUs       float64
	JitterNs    float64 // mean successive latency difference (§6.1.2: ns-scale)
}

// Arista loads every host port at line rate with fixed-size packets in a
// port-permutation pattern and reports delivered throughput plus latency
// statistics — the §6.1.2 measurement.
func Arista(cfg AristaConfig, packetSizes []int) ([]AristaRow, error) {
	if packetSizes == nil {
		packetSizes = []int{64, 128, 256, 384, 512, 1024, 1518}
	}
	var rows []AristaRow
	for _, size := range packetSizes {
		row, err := aristaOne(cfg, size)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func aristaOne(cfg AristaConfig, pktSize int) (AristaRow, error) {
	clos, err := topo.NewClos1(cfg.NumFA, cfg.UplinksPerFA, cfg.NumFE)
	if err != nil {
		return AristaRow{}, err
	}
	ccfg := core.DefaultConfig()
	ccfg.Packing = cfg.Packing
	ccfg.StoreAndForward = true // Arad is store-and-forward (§6.1.2)
	ccfg.HostPortBps = cfg.PortGbps * 1e9
	ccfg.HostPortsPerFA = cfg.PortsPerFA
	ccfg.LinkBps = cfg.LinkGbps * 1e9
	ccfg.LinkDelay = 50 * sim.Nanosecond // chassis-scale traces
	ccfg.Credit.PortRateBps = ccfg.HostPortBps
	ccfg.Seed = cfg.Seed
	net, err := core.New(ccfg, clos)
	if err != nil {
		return AristaRow{}, err
	}
	if !net.WarmUp(10 * sim.Millisecond) {
		return AristaRow{}, fmt.Errorf("experiments: arista fabric did not converge")
	}

	lat := &stats.Sample{}
	var deliveredB int64
	var prevLat sim.Time
	var jitterSum float64
	var jitterN int
	net.OnDeliver = func(p *core.Packet) {
		deliveredB += int64(p.Size)
		lat.Add(p.Latency().Microseconds())
		if prevLat != 0 {
			d := p.Latency() - prevLat
			if d < 0 {
				d = -d
			}
			jitterSum += d.Nanoseconds()
			jitterN++
		}
		prevLat = p.Latency()
	}

	// Port permutation at full line rate: port p of FA i sends to port p of
	// FA (i+1) mod N.
	start := net.Sim.Now()
	gapSecs := float64(pktSize*8) / ccfg.HostPortBps
	gap := sim.Time(gapSecs * float64(sim.Second))
	var offeredB int64
	for fa := 0; fa < cfg.NumFA; fa++ {
		for port := 0; port < cfg.PortsPerFA; port++ {
			fa, port := uint16(fa), uint8(port)
			dst := uint16((int(fa) + 1) % cfg.NumFA)
			var inject func()
			inject = func() {
				if net.Sim.Now()-start >= cfg.Duration {
					return
				}
				if ok, _ := net.Inject(fa, port, dst, port, 0, pktSize); ok {
					offeredB += int64(pktSize)
				}
				net.Sim.After(gap, inject)
			}
			// Stagger port phases to avoid synchronized bursts.
			net.Sim.After(gap*sim.Time(int64(port))/sim.Time(int64(cfg.PortsPerFA)), inject)
		}
	}
	net.Run(start + cfg.Duration + 200*sim.Microsecond)

	row := AristaRow{PacketBytes: pktSize}
	if offeredB > 0 {
		row.LineRatePct = 100 * float64(deliveredB) / float64(offeredB)
	}
	if lat.N() > 0 {
		row.MinUs = lat.Min()
		row.AvgUs = lat.Mean()
		row.MaxUs = lat.Max()
	}
	if jitterN > 0 {
		row.JitterNs = jitterSum / float64(jitterN)
	}
	return row, nil
}

package analytic

// Appendix C / Fig 10(d): relative silicon area and power of a Fabric
// Element (device B, BCM88790-class) vs. a standard Ethernet ToR switch
// (device A) manufactured in the same process.

// AreaRatios are the published per-block B/A ratios from Fig 10(d).
type AreaRatios struct {
	HeaderProcessing float64 // 13%: cell header parse vs programmable parser
	NetworkInterface float64 // 30%: cell extraction vs full multi-rate MAC
	OtherLogic       float64 // 60%: no protocol tables, minimal queueing
	IO               float64 // 87.5%: same serdes libraries
	RelAreaPerTbps   float64 // 66.6%
	RelPowerPerTbps  float64 // 64.8%
}

// PaperAreaRatios reproduces the Fig 10(d) table verbatim.
var PaperAreaRatios = AreaRatios{
	HeaderProcessing: 0.13,
	NetworkInterface: 0.30,
	OtherLogic:       0.60,
	IO:               0.875,
	RelAreaPerTbps:   0.666,
	RelPowerPerTbps:  0.648,
}

// AreaBreakdown is a compositional model of device A's die: the fraction of
// total area each block occupies. The defaults are calibrated so that
// applying the published per-block ratios reproduces the published
// area/Tbps ratio within ~1%, with the bandwidth normalization of the two
// actual devices (A: 12.8 Tbps ToR, B: 9.6 Tbps FE).
type AreaBreakdown struct {
	HeaderProcessing float64
	NetworkInterface float64
	OtherLogic       float64
	IO               float64
	BandwidthA       float64 // Tbps of device A
	BandwidthB       float64 // Tbps of device B
}

// DefaultAreaBreakdown reflects a contemporary ToR die: I/O ~30%,
// programmable header processing ~25%, network interfaces ~20%, remaining
// logic+buffers ~25% (cf. [19]'s observation that parser/match-action
// consume considerable area).
var DefaultAreaBreakdown = AreaBreakdown{
	HeaderProcessing: 0.25,
	NetworkInterface: 0.20,
	OtherLogic:       0.25,
	IO:               0.30,
	BandwidthA:       12.8,
	BandwidthB:       9.6,
}

// RelativeArea returns device B's area as a fraction of device A's (not
// bandwidth-normalized).
func (b AreaBreakdown) RelativeArea(r AreaRatios) float64 {
	return b.HeaderProcessing*r.HeaderProcessing +
		b.NetworkInterface*r.NetworkInterface +
		b.OtherLogic*r.OtherLogic +
		b.IO*r.IO
}

// RelativeAreaPerTbps normalizes RelativeArea by the two devices'
// bandwidths, matching the "Relative area/Tbps" row of Fig 10(d).
func (b AreaBreakdown) RelativeAreaPerTbps(r AreaRatios) float64 {
	return b.RelativeArea(r) / (b.BandwidthB / b.BandwidthA)
}

// VOQMemoryBytes returns the memory consumed by n VOQs, using Appendix C's
// anchor that 128K VOQs consume roughly 4 MB.
func VOQMemoryBytes(voqs int) int64 {
	const bytesPerVOQ = 4 << 20 >> 17 // 4MB / 128K = 32 B per VOQ
	return int64(voqs) * bytesPerVOQ
}

// ReachabilityTableBits compares lookup-state requirements (Appendix C):
// device A needs an exact-match IPv4 table of N*(32+log2 k) bits for N end
// hosts; device B needs only (N/hostsPerRack)*log2(k) bits.
func ReachabilityTableBits(hosts, radix, hostsPerRack int) (toR, fabricElement int64) {
	lg := 0
	for 1<<lg < radix {
		lg++
	}
	toR = int64(hosts) * int64(32+lg)
	fabricElement = int64((hosts+hostsPerRack-1)/hostsPerRack) * int64(lg)
	return
}

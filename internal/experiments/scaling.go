package experiments

import (
	"fmt"
	"io"

	"stardust/internal/analytic"
	"stardust/internal/device"
	"stardust/internal/topo"
	"stardust/internal/workload"
)

// WriteFig2 prints the three panels of Fig 2: end-host scalability vs
// tiers, devices vs hosts, serial links vs hosts, for the four 12.8 Tbps
// device configurations.
func WriteFig2(w io.Writer) {
	fmt.Fprintln(w, "== Fig 2(a): maximum end hosts vs tiers ==")
	fmt.Fprintf(w, "%-22s", "device")
	for n := 1; n <= 4; n++ {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("%d-tier", n))
	}
	fmt.Fprintln(w)
	for _, dev := range topo.Fig2Devices {
		fmt.Fprintf(w, "%-22s", dev.Name)
		for n := 1; n <= 4; n++ {
			fmt.Fprintf(w, " %14.3g", topo.MaxHosts(dev, n))
		}
		fmt.Fprintln(w)
	}
	hostCounts := []int{100e3, 200e3, 400e3, 600e3, 800e3, 1000e3}
	fmt.Fprintln(w, "\n== Fig 2(b): network devices for a given host count ==")
	fmt.Fprintf(w, "%-22s", "device")
	for _, h := range hostCounts {
		fmt.Fprintf(w, " %9.1gM", float64(h)/1e6)
	}
	fmt.Fprintln(w)
	for _, dev := range topo.Fig2Devices {
		fmt.Fprintf(w, "%-22s", dev.Name)
		for _, h := range hostCounts {
			fmt.Fprintf(w, " %10d", topo.Plan(dev, h).Devices)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\n== Fig 2(c): serial links for a given host count ==")
	for _, dev := range topo.Fig2Devices {
		fmt.Fprintf(w, "%-22s", dev.Name)
		for _, h := range hostCounts {
			fmt.Fprintf(w, " %10d", topo.Plan(dev, h).SerialLinks)
		}
		fmt.Fprintln(w)
	}
}

// WriteTable2 prints the element-count table for the given parameters.
func WriteTable2(w io.Writer, p topo.Params) {
	fmt.Fprintf(w, "== Table 2 (k=%d, t=%d, l=%d) ==\n", p.K, p.T, p.L)
	fmt.Fprintf(w, "%5s %12s %14s %14s %14s %12s\n",
		"tiers", "max ToRs", "max switches", "switches/ToR", "link bundles", "links/ToR")
	for n := 1; n <= 4; n++ {
		ec := topo.Table2(p, n)
		fmt.Fprintf(w, "%5d %12.0f %14.1f %14.2f %14.0f %12.1f\n",
			n, ec.MaxToRs, ec.MaxSwitches, ec.SwitchesPerToR, ec.LinkBundles, ec.LinksPerToR)
	}
}

// WriteFig3 prints the required-parallelism curves.
func WriteFig3(w io.Writer, sizes []int) {
	if sizes == nil {
		sizes = []int{64, 128, 256, 257, 512, 513, 768, 1024, 1025, 1500, 2048, 2500}
	}
	m := analytic.DefaultSwitch
	fmt.Fprintln(w, "== Fig 3: required parallel processing (12.8 Tbps, 256B bus, 1 GHz) ==")
	fmt.Fprintf(w, "%8s %12s %12s\n", "pkt[B]", "standard", "stardust")
	for _, r := range analytic.Fig3(m, sizes) {
		fmt.Fprintf(w, "%8d %12.2f %12.2f\n", r.PacketBytes, r.Standard, r.Stardust)
	}
}

// WriteFig8a prints the packing-throughput curves at the given clock.
func WriteFig8a(w io.Writer, clockHz float64, sizes []int) {
	if sizes == nil {
		sizes = []int{64, 65, 97, 129, 192, 250, 256, 512, 513, 750, 1024, 1250, 1518}
	}
	fmt.Fprintf(w, "== Fig 8(a): throughput at %.0f MHz, 4x10GE ==\n", clockHz/1e6)
	fmt.Fprintf(w, "%8s", "pkt[B]")
	for _, d := range device.AllDesigns {
		fmt.Fprintf(w, " %24s", d)
	}
	fmt.Fprintln(w)
	for _, row := range device.Fig8a(clockHz, sizes) {
		fmt.Fprintf(w, "%8d", row.PacketBytes)
		for _, d := range device.AllDesigns {
			fmt.Fprintf(w, " %23.2fG", row.Gbps[d])
		}
		fmt.Fprintln(w)
	}
}

// WriteFig8b prints the trace-mix throughput comparison.
func WriteFig8b(w io.Writer, clockHz float64) {
	fmt.Fprintf(w, "== Fig 8(b): trace throughput at %.0f MHz ==\n", clockHz/1e6)
	fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "trace", "Switch", "Cell", "Stardust")
	for _, tr := range workload.Traces {
		sizes, weights := workload.PacketMix(tr)
		ref := device.NetFPGA(device.Reference, clockHz).MixThroughput(sizes, weights)
		cel := device.NetFPGA(device.Cells, clockHz).MixThroughput(sizes, weights)
		pak := device.NetFPGA(device.Packed, clockHz).MixThroughput(sizes, weights)
		fmt.Fprintf(w, "%-8s %9.1f%% %9.1f%% %9.1f%%\n", tr, 100*ref, 100*cel, 100*pak)
	}
}

// WriteFig10d prints the silicon area table.
func WriteFig10d(w io.Writer) {
	r := analytic.PaperAreaRatios
	fmt.Fprintln(w, "== Fig 10(d): Fabric Element (B) vs standard switch (A) ==")
	fmt.Fprintf(w, "%-22s %8s\n", "block", "B/A")
	fmt.Fprintf(w, "%-22s %7.0f%%\n", "Header Processing", 100*r.HeaderProcessing)
	fmt.Fprintf(w, "%-22s %7.0f%%\n", "Network Interface", 100*r.NetworkInterface)
	fmt.Fprintf(w, "%-22s %7.0f%%\n", "Other logic", 100*r.OtherLogic)
	fmt.Fprintf(w, "%-22s %7.1f%%\n", "I/O", 100*r.IO)
	fmt.Fprintf(w, "%-22s %7.1f%%\n", "Relative area/Tbps", 100*r.RelAreaPerTbps)
	fmt.Fprintf(w, "%-22s %7.1f%%\n", "Relative power/Tbps", 100*r.RelPowerPerTbps)
	model := analytic.DefaultAreaBreakdown.RelativeAreaPerTbps(r)
	fmt.Fprintf(w, "(compositional die model reproduces area/Tbps at %.1f%%)\n", 100*model)
}

// WriteFig11 prints the relative cost and power curves.
func WriteFig11(w io.Writer, hostCounts []int) error {
	if hostCounts == nil {
		hostCounts = []int{1000, 4000, 10000, 40000, 100000, 400000, 1000000}
	}
	fmt.Fprintln(w, "== Fig 11(a): Stardust DCN cost relative to fat-tree [%] ==")
	fmt.Fprintf(w, "%10s", "hosts")
	for _, d := range analytic.Fig11aDevices {
		fmt.Fprintf(w, " %14s", d.Name)
	}
	fmt.Fprintln(w)
	rows, err := analytic.Fig11a(hostCounts)
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%10d", row.Hosts)
		for _, d := range analytic.Fig11aDevices {
			fmt.Fprintf(w, " %13.1f%%", row.Relative[d.Name])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\n== Fig 11(b): Stardust DCN power relative to fat-tree [%] ==")
	fmt.Fprintf(w, "%10s", "hosts")
	for _, d := range topo.Fig2Devices {
		fmt.Fprintf(w, " %18s", d.Name)
	}
	fmt.Fprintln(w)
	for _, row := range analytic.Fig11b(hostCounts) {
		fmt.Fprintf(w, "%10d", row.Hosts)
		for _, d := range topo.Fig2Devices {
			fmt.Fprintf(w, " %17.1f%%", row.Relative[d.Name])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(fabric-only power saving at 10K hosts vs %s: %.0f%%)\n",
		topo.FT400Gx32.Name, analytic.FabricPowerSaving(topo.FT400Gx32, 10000))
	return nil
}

// WriteAppendixE prints the resilience timing model.
func WriteAppendixE(w io.Writer) {
	p := analytic.DefaultResilience
	fmt.Fprintln(w, "== Appendix E: reachability-driven failure recovery ==")
	fmt.Fprintf(w, "message interval t'      : %v us\n", p.MessageInterval().Microseconds())
	fmt.Fprintf(w, "messages per table M     : %d\n", p.MessagesPerTable())
	fmt.Fprintf(w, "propagation (no fiber)   : %v us (§5.9: 210us)\n", p.PropagationTime().Microseconds())
	fmt.Fprintf(w, "recovery time t*th       : %.2f us (paper: 652us)\n", p.RecoveryTime().Microseconds())
	fmt.Fprintf(w, "bandwidth overhead       : %.4f%% (paper: 0.04%%)\n", 100*p.BandwidthOverhead())
}

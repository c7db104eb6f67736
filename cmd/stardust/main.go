// Command stardust runs the registered scenarios — every figure, table
// and experiment of the reproduction — named as the registry names them:
//
//	stardust [flags] <scenario | family | glob>... [key=value]...
//
//	stardust -list                                        # every scenario, parameter, default and doc
//	stardust htsim/permutation k=4 dur_ms=5 proto=DCTCP,Stardust
//	stardust -seed 7 -shards 2 fabric/parscale k=4 hotspot=6
//	stardust scaling                                      # the whole family
//	stardust scaling/appendixE fabric/recovery fabric/pushpull
//
// The same scenario + parameter vocabulary addresses a run over
// stardustd's HTTP API. Instances are independent, so -workers N runs a
// sweep in parallel; the sharded scenarios additionally split one
// instance across -shards event loops, or across real peer processes
// with -peers / -join. Output is byte-identical for a fixed -seed at any
// of those counts.
package main

import (
	"flag"
	"fmt"
	"os"

	"stardust/internal/distsim"
	"stardust/internal/engine"
	_ "stardust/internal/scenarios"
)

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "usage: stardust [flags] <scenario | family | glob>... [key=value]...")
	fmt.Fprintln(w, "       stardust -list")
	flag.PrintDefaults()
}

func main() {
	// Before anything else: a forked peer child (fabric/distscale,
	// trace/record peers=N, devnet) re-executes this binary and must
	// branch into the peer loop here.
	distsim.MaybeRunPeer()
	eng := engine.AddFlags(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 && !eng.List && eng.Join == "" {
		usage()
		fmt.Fprintln(flag.CommandLine.Output(), "\nscenarios (-list):")
		engine.WriteRegistry(flag.CommandLine.Output())
		os.Exit(2)
	}
	engine.Main(eng, flag.Args())
}

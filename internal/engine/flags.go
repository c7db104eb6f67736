package engine

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"stardust/internal/distsim"
)

// Flags bundles the engine options of the stardust command. Bind them
// onto a FlagSet with AddFlags, then hand the parsed value to Main.
type Flags struct {
	Workers    int
	Shards     int
	Topo       string
	Format     string
	Seed       int64
	List       bool
	Timings    bool
	CPUProfile string
	MemProfile string
	// Distributed execution (see internal/distsim): Peers>0 makes
	// dist-capable scenarios serve as coordinator on Listen and wait for
	// that many peer processes; Join turns this process into a peer of the
	// coordinator at the given address and runs no scenarios of its own.
	Peers  int
	Listen string
	Join   string
}

// AddFlags registers the common engine flags on fs and returns the
// destination struct.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Workers, "workers", 0, "parallel scenario instances (0 = all CPUs)")
	fs.IntVar(&f.Shards, "shards", 1, "event-loop shards per instance for sharded scenarios (same seed => byte-identical output at any count)")
	fs.StringVar(&f.Topo, "topo", "", "fabric topology for topology-aware scenarios: clos (default), sshuffle, star, or a full topo spec string")
	fs.StringVar(&f.Format, "format", "text", "output format: text, json, csv")
	fs.Int64Var(&f.Seed, "seed", 1, "base RNG seed (same seed => byte-identical output)")
	fs.BoolVar(&f.List, "list", false, "list registered scenarios and exit")
	fs.BoolVar(&f.Timings, "timings", false, "print a wall-clock summary to stderr")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a post-run heap profile to this file (inspect with go tool pprof)")
	fs.IntVar(&f.Peers, "peers", 0, "distributed run: serve as coordinator for this many peer processes (0 = in-process shards)")
	fs.StringVar(&f.Listen, "listen", "127.0.0.1:0", "distributed run: coordinator listen address (with -peers)")
	fs.StringVar(&f.Join, "join", "", "distributed run: join the coordinator at this address as a peer and exit")
	return f
}

// Options converts the parsed flags into runner options writing to
// stdout (results) and stderr (timings).
func (f *Flags) Options() Options {
	o := Options{
		Workers:    f.Workers,
		Shards:     f.Shards,
		Topo:       f.Topo,
		Seed:       f.Seed,
		Format:     f.Format,
		Out:        os.Stdout,
		DistPeers:  f.Peers,
		DistListen: f.Listen,
	}
	if f.Timings {
		o.Timing = os.Stderr
	}
	return o
}

// WriteRegistry prints the scenario registry: name, description, and one
// line per accepted parameter with its default and registered doc string
// (the same metadata the stardustd API serves as JSON).
func WriteRegistry(w io.Writer) {
	for _, sc := range List() {
		fmt.Fprintf(w, "%-20s %s\n", sc.Name, sc.Desc)
		for _, d := range sc.ParamDocs() {
			kv := d.Key + "=" + d.Default
			if d.Desc != "" {
				fmt.Fprintf(w, "    %-24s %s\n", kv, d.Desc)
			} else {
				fmt.Fprintf(w, "    %s\n", kv)
			}
		}
	}
}

// fatal prints err and exits — only used after profiles are flushed.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// Main is the entry point of the stardust command: it honors -list,
// handles the distributed peer modes, resolves args — the words left
// after the flags — into jobs (ParseArgs), wraps the run in the requested
// CPU/heap profiles, runs the jobs with the common options, and exits
// non-zero on failure. Profiles are stopped and flushed before any exit
// path, including a failed run, so a profile of a crashing sweep is
// still readable.
//
// Callers must invoke distsim.MaybeRunPeer() at the very top of main(),
// before flag parsing — a forked peer child (devnet, fabric/distscale)
// re-executes the binary and must branch into the peer loop first.
func Main(f *Flags, args []string) {
	if f.List {
		WriteRegistry(os.Stdout)
		return
	}
	if f.Join != "" {
		// Peer mode: this process owns no scenarios; it serves shards for
		// the coordinator at -join and exits when the run completes.
		if err := distsim.RunPeer(f.Join); err != nil {
			fatal(err)
		}
		return
	}
	jobs, err := ParseArgs(args)
	if err != nil {
		fatal(err)
	}
	var cpuFile *os.File
	if f.CPUProfile != "" {
		fp, err := os.Create(f.CPUProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(fp); err != nil {
			fp.Close()
			fatal(err)
		}
		cpuFile = fp
	}
	_, runErr := Run(f.Options(), jobs)
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			fatal(err)
		}
	}
	if f.MemProfile != "" {
		fp, err := os.Create(f.MemProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle the pools so the profile shows retained state
		if err := pprof.WriteHeapProfile(fp); err != nil {
			fp.Close()
			fatal(err)
		}
		if err := fp.Close(); err != nil {
			fatal(err)
		}
	}
	if runErr != nil {
		fatal(runErr)
	}
}

package main

import (
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of v (mean of the two middle values
// for an even count, 0 for none). v is not modified.
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the p-quantile of v by linear interpolation between
// order statistics (0 for an empty slice). v is not modified.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// Summary is a metric's reported value (the median over repetitions)
// with the sample count and range printed beside it.
type Summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

func summarize(samples []float64, unit string) Summary {
	s := Summary{Value: median(samples), Unit: unit, N: len(samples)}
	if len(samples) > 0 {
		s.Min, s.Max = samples[0], samples[0]
		for _, x := range samples {
			s.Min, s.Max = min(s.Min, x), max(s.Max, x)
		}
	}
	return s
}

// peakRSSMiB returns this process's peak resident set (Linux reports
// Maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// mallocs returns the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measure times n iterations' worth of work done by fn and returns the
// cost per iteration in nanoseconds and in heap allocations.
func measure(n int, fn func()) (nsPer, allocsPer float64) {
	m0 := mallocs()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	m1 := mallocs()
	return float64(d.Nanoseconds()) / float64(n), float64(m1-m0) / float64(n)
}

// Host is the provenance block written into every result file, so that
// numbers are only ever compared between like hosts.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitCommit  string `json:"git_commit"`
}

func hostInfo() Host {
	return Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: benchProcs,
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitCommit:  gitCommit(),
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the working directory's .git without
// starting a process; a checkout that is not a repository is "unknown".
func gitCommit() string {
	head := firstLine(".git/HEAD")
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head // detached HEAD holds the hash itself, or "unknown"
	}
	if h := firstLine(".git/" + ref); h != "unknown" {
		return h
	}
	b, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if h, name, ok := strings.Cut(line, " "); ok && name == ref {
			return h
		}
	}
	return "unknown"
}

// Command stardust-loadgen drives a stardustd serving tier with very
// large numbers of concurrent keep-alive clients and reports latency
// percentiles and cache-hit throughput.
//
// It first primes the cluster — submits one scenario run, waits for it
// to finish, and touches the result on every node so each holds the
// bytes locally — then hammers the pure byte-serving cache-hit path:
//
//	stardust-loadgen -targets http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083 \
//	    -clients 100000 -duration 30s -scenario scaling/fig2 -seed 7
//
// With -path the priming step is skipped and the given path is hit
// as-is. -json emits the report as JSON (for CI job summaries).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"stardust/internal/loadgen"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stardust-loadgen: "+format+"\n", args...)
	os.Exit(1)
}

// prime submits the scenario to the first target, waits for the run to
// finish, then fetches the result from every target so each node holds
// the bytes locally (owner hit or peer fetch). It returns the
// cache-hit path.
func prime(targets []string, scenario string, params map[string]string, seed int64) string {
	body, _ := json.Marshal(map[string]any{"scenario": scenario, "params": params, "seed": seed})
	hc := &http.Client{Timeout: 30 * time.Second}
	resp, err := hc.Post(targets[0]+"/api/v1/runs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		fatalf("priming submit: %v", err)
	}
	var job struct {
		ID    string `json:"id"`
		Key   string `json:"cache_key"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode >= 400 {
		fatalf("priming submit: status %d err %v (%+v)", resp.StatusCode, err, job)
	}
	path := "/api/v1/cache/" + job.Key
	// Wait for the bytes to exist on the node that ran the job, then warm
	// every node's local store through its own cache endpoint.
	for _, t := range targets {
		deadline := time.Now().Add(2 * time.Minute)
		for {
			resp, err := hc.Get(t + path)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				fatalf("priming %s%s never became a cache hit", t, path)
			}
			time.Sleep(200 * time.Millisecond)
		}
	}
	return path
}

func main() {
	targetsFlag := flag.String("targets", "http://127.0.0.1:8080", "comma-separated stardustd base URLs")
	clients := flag.Int("clients", 1000, "concurrent keep-alive clients")
	duration := flag.Duration("duration", 10*time.Second, "measured run length")
	warmup := flag.Duration("warmup", 1*time.Second, "warmup slice excluded from the stats")
	think := flag.Duration("think", 0, "per-client pause between requests (0 = closed loop)")
	stagger := flag.Duration("stagger", 0, "window over which client connections are established (0 = auto)")
	path := flag.String("path", "", "request path to hit as-is (skips scenario priming)")
	scenario := flag.String("scenario", "scaling/fig2", "scenario to prime the result cache with")
	paramsFlag := flag.String("params", "", "priming scenario params, k=v comma-separated")
	seed := flag.Int64("seed", 7, "priming scenario seed")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	flag.Parse()

	raiseNoFile()
	targets := strings.Split(*targetsFlag, ",")
	p := *path
	if p == "" {
		params := map[string]string{}
		if *paramsFlag != "" {
			for _, kv := range strings.Split(*paramsFlag, ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					fatalf("bad -params entry %q", kv)
				}
				params[k] = v
			}
		}
		p = prime(targets, *scenario, params, *seed)
		fmt.Fprintf(os.Stderr, "primed %s on %d node(s)\n", p, len(targets))
	}

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:     targets,
		Path:        p,
		Clients:     *clients,
		Duration:    *duration,
		Warmup:      *warmup,
		Think:       *think,
		DialStagger: *stagger,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	} else {
		fmt.Println(rep)
	}
	if rep.Errors > 0 || rep.Requests == 0 {
		os.Exit(2)
	}
}

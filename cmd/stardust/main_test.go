package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

const asStardust = "STARDUST_TEST_AS_MAIN"

// TestMain lets the tests run the real command: re-executed with
// asStardust set, this test binary is stardust — main() and its exit
// status included.
func TestMain(m *testing.M) {
	if os.Getenv(asStardust) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func stardust(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asStardust+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

func TestCommandLine(t *testing.T) {
	out, errs, exit := stardust(t, "-format", "csv", "scaling/table2", "k=16")
	if exit != 0 || !strings.Contains(out, "scaling/table2") || !strings.Contains(out, "k=16") {
		t.Fatalf("run: exit %d\nstdout: %s\nstderr: %s", exit, out, errs)
	}

	// A misspelt key is one keystroke away; it must not run the defaults.
	// Neither must a key that was removed (rebalance, PR 23).
	for _, key := range []string{"kk", "rebalance"} {
		out, errs, exit = stardust(t, "fabric/parscale", key+"=true")
		if exit != 1 || out != "" || !strings.Contains(errs, `no parameter "`+key+`"`) || !strings.Contains(errs, "hotspot, k, load") {
			t.Fatalf("unknown key %s: exit %d\nstdout: %s\nstderr: %s", key, exit, out, errs)
		}
	}

	// A shard count the fabric cannot have is refused before anything is
	// built for it: shards=100000 used to allocate until the kernel killed
	// the process (exit 137), shards=-1 used to run one shard and echo -1.
	for _, args := range [][]string{
		{"fabric/parscale", "k=4", "shards=100000"},
		{"fabric/parscale", "k=4", "shards=-1"},
		{"fabric/parscale", "k=4", "shards=2,17"},
		{"htsim/parperm", "k=4", "shards=100000"},
		{"trace/record", "k=4", "shards=-1"},
	} {
		out, errs, exit = stardust(t, args...)
		if exit != 1 || out != "" || !strings.Contains(errs, "must be in [1, 16], the devices of the graph") {
			t.Fatalf("%v: exit %d\nstdout: %s\nstderr: %s", args, exit, out, errs)
		}
	}

	// A Spec the model cannot simulate is refused the same way, naming the
	// field: these used to run (cell=0 with link counters that never moved,
	// load=0 until the drain gave up).
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"fabric/parscale", "k=4", "cell=0"}, "cell 0 bytes: must be in [1, 262144]"},
		{[]string{"fabric/parheal", "k=4", "load=0"}, "load 0: must be finite and > 0"},
		{[]string{"fabric/distscale", "k=4", "dur_ms=-1"}, "dur -1000000000 ps: must be > 0"},
		{[]string{"trace/record", "k=4", "load=-0.5"}, "load -0.5"},
		{[]string{"trace/replay", "k=4", "dur_us=0"}, "dur 0 ps"},
	} {
		out, errs, exit = stardust(t, tc.args...)
		if exit != 1 || out != "" || !strings.Contains(errs, tc.want) {
			t.Fatalf("%v: exit %d\nstdout: %s\nstderr: %s", tc.args, exit, out, errs)
		}
	}

	out, errs, exit = stardust(t, "scaling/table2", "-seed", "7")
	if exit != 1 || out != "" || !strings.Contains(errs, "flags come first") {
		t.Fatalf("flag after the scenario: exit %d\nstdout: %s\nstderr: %s", exit, out, errs)
	}

	out, errs, exit = stardust(t)
	if exit != 2 || out != "" || !strings.Contains(errs, "usage: stardust") || !strings.Contains(errs, "fabric/parscale") {
		t.Fatalf("empty command line: exit %d\nstdout: %s\nstderr: %.300s", exit, out, errs)
	}

	out, _, exit = stardust(t, "-list")
	if exit != 0 || !strings.Contains(out, "htsim/permutation") {
		t.Fatalf("-list: exit %d\nstdout: %.300s", exit, out)
	}
}

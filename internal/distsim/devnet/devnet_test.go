package devnet

import (
	"os"
	"reflect"
	"testing"
	"time"

	"stardust/internal/distsim"
	"stardust/internal/sim"
)

// TestMain routes forked children into the peer loop: Spawn re-executes
// this test binary with STARDUST_PEER_JOIN set, and MaybeRunPeer must win
// before the test framework does anything else.
func TestMain(m *testing.M) {
	distsim.MaybeRunPeer()
	os.Exit(m.Run())
}

func devSpec() distsim.Spec {
	return distsim.Spec{K: 4, Seed: 7, Shards: 4, Dur: 200 * sim.Microsecond, Load: 0.5, CellBytes: 512, Hotspot: 1}
}

func localOutcome(t *testing.T, spec distsim.Spec) distsim.Outcome {
	t.Helper()
	m, err := distsim.NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.RunLocal()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDevnetMatchesLocal: two real forked peer processes produce the same
// outcome as the single-process run.
func TestDevnetMatchesLocal(t *testing.T) {
	spec := devSpec()
	want := localOutcome(t, spec)

	l, err := distsim.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	addr := l.Addr().String()
	var peers []*Peer
	for i := 0; i < 2; i++ {
		p, err := Spawn(addr)
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	got, err := distsim.Serve(l, distsim.CoordConfig{Spec: spec, Peers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if werr := p.Wait(); werr != nil {
			t.Errorf("peer exited uncleanly: %v", werr)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("devnet outcome diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestDevnetKillRestore is the chaos case: SIGKILL a real peer process
// mid-run, fork a replacement, and require the restored run's final
// outcome — digest included — to be byte-identical to the uninterrupted
// single-process run.
func TestDevnetKillRestore(t *testing.T) {
	// The coordinator accounts windows behind the peers, which run ahead by
	// what its reader queues and the socket buffers hold — a few hundred
	// windows of DONE frames at most. Ten times the usual run makes window
	// 150 of the coordinator's count mid-run for the peers whatever that
	// lag is.
	spec := devSpec()
	spec.Dur = 2 * sim.Millisecond
	want := localOutcome(t, spec)

	l, err := distsim.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	addr := l.Addr().String()
	var peers []*Peer
	for i := 0; i < 2; i++ {
		p, err := Spawn(addr)
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	var replacement *Peer
	killed := false
	cfg := distsim.CoordConfig{
		Spec:          spec,
		Peers:         2,
		Rejoin:        true,
		RejoinTimeout: 120 * time.Second,
		// OnWindow runs on the coordinator's accounting loop while the
		// peers exchange mail among themselves: the kill lands mid-window
		// somewhere past window 150, with live mail in flight.
		OnWindow: func(w int) {
			if w == 150 && !killed {
				killed = true
				if err := peers[0].Kill(); err != nil {
					t.Errorf("kill: %v", err)
				}
				r, err := Spawn(addr)
				if err != nil {
					t.Errorf("respawn: %v", err)
					return
				}
				replacement = r
			}
		},
	}
	got, err := distsim.Serve(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("run finished before the kill window — spec too short for the chaos test")
	}
	peers[0].Wait() // reaps the SIGKILLed child; its exit status is the signal
	if werr := peers[1].Wait(); werr != nil {
		t.Errorf("surviving peer exited uncleanly: %v", werr)
	}
	if replacement != nil {
		if werr := replacement.Wait(); werr != nil {
			t.Errorf("replacement peer exited uncleanly: %v", werr)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kill/restore outcome diverged:\n got %+v\nwant %+v", got, want)
	}
}

// Package devnet forks real peer processes for distributed-simulation
// tests. It re-executes the current binary with STARDUST_PEER_JOIN set;
// any binary whose main (or TestMain) calls distsim.MaybeRunPeer first
// branches into the peer loop in the child, so the coordinator under test
// talks to genuinely separate OS processes over real TCP — the same code
// path a multi-host deployment exercises, minus the network distance.
package devnet

import (
	"fmt"
	"os"
	"os/exec"

	"stardust/internal/distsim"
)

// Peer is one forked peer process.
type Peer struct {
	cmd *exec.Cmd
}

// Spawn forks the current executable as a peer joining the coordinator at
// addr. The child inherits stderr so peer-side failures surface in test
// output.
func Spawn(addr string) (*Peer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("devnet: locating own binary: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), distsim.EnvJoin+"="+addr)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("devnet: forking peer: %w", err)
	}
	return &Peer{cmd: cmd}, nil
}

// Kill delivers SIGKILL — an unclean death, no TCP goodbye beyond the
// kernel's RST. This is the crash a recovery (a re-run) must absorb.
func (p *Peer) Kill() error {
	return p.cmd.Process.Kill()
}

// Wait reaps the child and returns its exit error, if any. After Kill the
// error reports the signal; callers expecting a clean exit check nil.
func (p *Peer) Wait() error {
	return p.cmd.Wait()
}

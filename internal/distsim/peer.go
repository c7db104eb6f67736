// The peer runtime: dial the coordinator, build the replica, replay the
// resume checkpoint if restoring, then execute owned shards window by
// window — decode inbound mail, StepOwned, encode outbound mail, DONE.
package distsim

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"stardust/internal/parsim"
)

// EnvJoin, when set in a process's environment, makes MaybeRunPeer take
// over the process as a peer joining the coordinator at that address —
// the re-exec seam the devnet harness forks real peer processes through.
const EnvJoin = "STARDUST_PEER_JOIN"

// peerIOTimeout must outlast a coordinator-side rejoin wait: while a dead
// peer is being restored, every healthy peer is parked in a read.
const peerIOTimeout = 180 * time.Second

// MaybeRunPeer turns the current process into a peer when EnvJoin is set,
// and never returns in that case. Call it first thing in main() (the cmd
// binaries do, via engine.Main) and in TestMain of any test that forks
// peers via devnet — the forked child re-executes the same binary and
// must branch into the peer loop before anything else runs.
func MaybeRunPeer() {
	addr := os.Getenv(EnvJoin)
	if addr == "" {
		return
	}
	if err := RunPeer(addr); err != nil {
		fmt.Fprintf(os.Stderr, "stardust peer: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// RunPeer joins the coordinator at addr and serves one simulation. The
// coordinator may not be listening yet (peers and coordinator start
// concurrently), so the dial retries briefly.
func RunPeer(addr string) error {
	conn, err := dialRetry(addr, 30*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	return runPeerConn(conn, -1)
}

func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("distsim: dialing coordinator %s: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runPeerConn speaks the peer side of the protocol on an established
// connection. dieAtWindow is a test seam: when >= 0 the peer drops the
// connection on reaching that window, simulating a crash mid-run for the
// checkpoint/restore tests (it cannot SIGKILL a goroutine).
func runPeerConn(conn net.Conn, dieAtWindow int) error {
	pc := newPeerConn(conn, peerIOTimeout, nil)
	hb, err := json.Marshal(helloMsg{Version: protoVersion})
	if err != nil {
		return err
	}
	if err := pc.write(tHello, hb, false); err != nil {
		return err
	}
	typ, body, err := pc.read()
	if err != nil {
		return fmt.Errorf("distsim: reading welcome: %w", err)
	}
	if typ == tError {
		return fmt.Errorf("distsim: coordinator rejected join: %s", body)
	}
	if typ != tWelcome {
		return fmt.Errorf("distsim: expected WELCOME, got frame %d", typ)
	}
	var wm welcomeMsg
	if err := json.Unmarshal(body, &wm); err != nil {
		return fmt.Errorf("distsim: bad WELCOME: %w", err)
	}
	m, err := NewModel(wm.Spec)
	if err != nil {
		pc.write(tError, []byte(err.Error()), false)
		return err
	}
	if len(wm.Owners) != wm.Spec.Shards {
		return fmt.Errorf("distsim: partition map names %d shards, spec has %d", len(wm.Owners), wm.Spec.Shards)
	}
	owned := make([]bool, wm.Spec.Shards)
	for s, o := range wm.Owners {
		owned[s] = o == wm.PeerID
	}

	// Telemetry: at each scrape boundary this peer ships the absolute
	// counters of the entities it owns (disjoint across peers, complete
	// in union). The owned sets are static, computed once.
	telem := wm.Spec.telemEvery(m.Eng.Lookahead())
	var ownedDirs, ownedFAs []int
	if telem > 0 {
		for d := 0; d < 2*m.Net.NumLinks(); d++ {
			if owned[m.Net.OwnerOfLinkDir(d)] {
				ownedDirs = append(ownedDirs, d)
			}
		}
		for fa := range m.Sinks {
			if owned[m.Net.ShardOfFA(fa)] {
				ownedFAs = append(ownedFAs, fa)
			}
		}
	}

	// Restore by replay: the checkpoint is the inbound mail history, and
	// the replica is deterministic, so re-executing windows [0, Resume)
	// reproduces the dead peer's barrier state exactly. Outbound mail is
	// discarded — the living peers received it the first time — but still
	// pushed through the codec so pooled packets are released.
	discard := func(src, dst int, mail parsim.Mail) { m.Net.EncodeMail(mail) }
	for w := 0; w < wm.Resume; w++ {
		if err := deliverBatch(m, wm.Mail[w]); err != nil {
			pc.write(tError, []byte(err.Error()), false)
			return err
		}
		m.Eng.StepOwned(owned, discard)
	}

	rb, err := json.Marshal(readyMsg{Hash: modelHash(wm.Spec, wm.Owners, m)})
	if err != nil {
		return err
	}
	if err := pc.write(tReady, rb, false); err != nil {
		return err
	}

	var encodeErr error
	outBuf := []byte{}
	outCount := 0
	emit := func(src, dst int, mail parsim.Mail) {
		kind, pay, err := m.Net.EncodeMail(mail)
		if err != nil {
			if encodeErr == nil {
				encodeErr = err
			}
			return
		}
		outBuf = appendEntry(outBuf, mailEntry{
			dst:  dst,
			at:   mail.At,
			lane: mail.Lane,
			kind: kind,
			arg:  mail.Arg,
			pay:  pay,
		})
		outCount++
	}
	for {
		typ, body, err := pc.read()
		if err != nil {
			return fmt.Errorf("distsim: coordinator connection lost: %w", err)
		}
		switch typ {
		case tGo:
			w, k := binary.Uvarint(body)
			if k <= 0 {
				return fmt.Errorf("distsim: truncated GO")
			}
			if dieAtWindow >= 0 && int(w) >= dieAtWindow {
				conn.Close()
				return fmt.Errorf("distsim: induced peer death at window %d", w)
			}
			if err := deliverBatch(m, body[k:]); err != nil {
				pc.write(tError, []byte(err.Error()), false)
				return err
			}
			outBuf, outCount, encodeErr = outBuf[:0], 0, nil
			end := m.Eng.StepOwned(owned, emit)
			if encodeErr != nil {
				pc.write(tError, []byte(encodeErr.Error()), false)
				return encodeErr
			}
			done := binary.AppendUvarint(nil, w)
			done = binary.AppendUvarint(done, uint64(m.Eng.OwnedPending(owned)))
			done = binary.AppendUvarint(done, uint64(outCount))
			done = append(done, outBuf...)
			if telem > 0 {
				done = appendTelemSection(done, m, ownedDirs, ownedFAs, end, m.Eng.Lookahead(), telem)
			}
			if err := pc.write(tDone, done, true); err != nil {
				return err
			}
		case tFinish:
			rep, err := json.Marshal(buildReport(m, owned))
			if err != nil {
				return err
			}
			return pc.write(tReport, rep, true)
		case tError:
			return fmt.Errorf("distsim: coordinator error: %s", body)
		default:
			return fmt.Errorf("distsim: unexpected frame %d", typ)
		}
	}
}

// deliverBatch decodes one window's inbound mail batch against this
// replica and injects it in barrier context. Entries arrive in per-source
// send order; the (time, lane) key makes cross-source order irrelevant,
// exactly as for an in-process mailbox flush.
func deliverBatch(m *Model, batch []byte) error {
	count, rest, err := batchCount(batch)
	if err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		var e mailEntry
		e, rest, err = readEntry(rest)
		if err != nil {
			return err
		}
		act, _, err := m.Net.DecodeMail(e.kind, e.lane, e.pay)
		if err != nil {
			return err
		}
		m.Eng.DeliverMail(e.dst, parsim.Mail{At: e.at, Lane: e.lane, Act: act, Arg: e.arg})
	}
	return nil
}

// buildReport snapshots everything this peer owns of the final state:
// its shards' traffic counters, event counts and shard-held reachability
// holes, the delivery sinks of its FAs, and the forwarding counters of
// the link directions whose queues live on its shards.
func buildReport(m *Model, owned []bool) peerReport {
	var rep peerReport
	for s, own := range owned {
		if !own {
			continue
		}
		tr := m.Net.TrafficOfShard(s)
		rep.Shards = append(rep.Shards, shardReport{
			ID:           s,
			Injected:     tr.Injected,
			Delivered:    tr.Delivered,
			DeadDrops:    tr.DeadDrops,
			NoRouteDrops: tr.NoRouteDrops,
			Processed:    m.Eng.Shard(s).Sim().Processed,
			Unreachable:  m.Net.Unreachable(s),
		})
	}
	for fa, sink := range m.Sinks {
		if owned[m.Net.ShardOfFA(fa)] {
			rep.Sinks = append(rep.Sinks, sinkReport{FA: fa, Cells: sink.Cells, Bytes: sink.Bytes})
		}
	}
	for d := 0; d < 2*m.Net.NumLinks(); d++ {
		if owned[m.Net.OwnerOfLinkDir(d)] {
			b, cl, dr := m.Net.DirCounters(d)
			rep.Dirs = append(rep.Dirs, dirReport{Dir: d, FwdBytes: b, FwdCells: cl, Drops: dr})
		}
	}
	return rep
}

// Distributed support: the wire codec for cross-shard mailbox messages
// and the ownership/report accessors the distributed runtime
// (internal/distsim) aggregates counters through.
//
// A distributed run replicates the whole deterministic model on every
// process and executes only an owned subset of the shards per process, so
// a cross-shard message never needs to carry model objects — only enough
// to rebind the message to the receiver's replica. Exactly two action
// kinds cross shard cuts in a fabric simulation, and both are compact:
//
//   - a cell (*netsim.Packet) in flight on a directed link's propagation
//     lane — the lane IS the directed link index, so the receiver rebinds
//     the decoded cell to its own replica's link route;
//   - under the reach protocol, a reachability re-advertisement on an
//     FE1's reach lane — spine index, down port and the reach.Message
//     batch. A recomputed graph reconverges by barrier controls every
//     replica runs locally and ships nothing.
//
// A transport overlay (packets with Flow state, closure actions) cannot
// be rebound to a remote replica; EncodeMail rejects it with a
// deterministic error rather than guessing. Frames arrive from a socket:
// DecodeMail checks every field against the model and returns an error,
// so a decoded action cannot panic later inside the event loop.
package fabric

import (
	"encoding/binary"
	"fmt"

	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/sim"
)

// Wire kinds of a cross-shard mail payload.
const (
	MailCell  byte = 1 // *netsim.Packet on a directed link's lane
	MailReach byte = 2 // reach-protocol update on an FE1's reach lane
)

// Cell flag bits.
const (
	cellAck  = 1 << 0
	cellCE   = 1 << 1
	cellEcho = 1 << 2
	cellDown = 1 << 3
)

// EncodeMail serializes one cross-shard message for the wire. It consumes
// the message: an encoded cell is released back to the packet pool, so
// the caller must not touch m.Act afterwards. Messages the codec cannot
// rebind on a remote replica (transport packets with Flow state, unknown
// action types) return an error — the distributed runtime turns that into
// a deterministic "not distributable" failure instead of silent
// corruption.
func (n *Net) EncodeMail(m parsim.Mail) (kind byte, payload []byte, err error) {
	a, ok := m.Act.(*netsim.Packet)
	if !ok {
		if payload, ok := n.routes.encodeMail(m.Act); ok {
			return MailReach, payload, nil
		}
		return 0, nil, fmt.Errorf("fabric: cross-shard action %T on lane %d is not distributable", m.Act, m.Lane)
	}
	if a.Flow != nil {
		return 0, nil, fmt.Errorf("fabric: cell on lane %d carries transport flow state; the transport overlay is not distributable", m.Lane)
	}
	if int(m.Lane) >= len(n.links) {
		return 0, nil, fmt.Errorf("fabric: packet on non-link lane %d is not distributable", m.Lane)
	}
	var flags byte
	if a.Ack {
		flags |= cellAck
	}
	if a.CE {
		flags |= cellCE
	}
	if a.Echo {
		flags |= cellEcho
	}
	if a.Down {
		flags |= cellDown
	}
	buf := make([]byte, 0, 16)
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(a.Size))
	buf = binary.AppendUvarint(buf, uint64(a.Dst))
	buf = binary.AppendVarint(buf, a.Seq)
	a.Release()
	return MailCell, buf, nil
}

// DecodeMail rebinds one wire payload to this replica of the model,
// returning the action and argument to inject on the destination shard at
// the original (time, lane) key.
func (n *Net) DecodeMail(kind byte, lane int32, payload []byte) (sim.Action, uint64, error) {
	switch kind {
	case MailCell:
		if lane < 0 || int(lane) >= len(n.links) {
			return nil, 0, fmt.Errorf("fabric: cell on bad link lane %d", lane)
		}
		if len(payload) < 1 {
			return nil, 0, fmt.Errorf("fabric: truncated cell payload")
		}
		flags, rest := payload[0], payload[1:]
		// A cell that crossed a link queue fits in it, and is bound for an
		// edge device: anything else would index out of the forwarding tables.
		size, k := binary.Uvarint(rest)
		if k <= 0 || size > uint64(n.Cfg.LinkBytes) {
			return nil, 0, fmt.Errorf("fabric: bad cell size")
		}
		rest = rest[k:]
		dst, k := binary.Uvarint(rest)
		if k <= 0 || dst >= uint64(n.NumFA()) {
			return nil, 0, fmt.Errorf("fabric: bad cell dst")
		}
		rest = rest[k:]
		seq, k := binary.Varint(rest)
		if k <= 0 || k != len(rest) {
			return nil, 0, fmt.Errorf("fabric: bad cell seq")
		}
		p := netsim.NewPacket()
		p.Size = int(size)
		p.Dst = int32(dst)
		p.Seq = seq
		p.Ack = flags&cellAck != 0
		p.CE = flags&cellCE != 0
		p.Echo = flags&cellEcho != 0
		p.Down = flags&cellDown != 0
		// A cell crossing a shard cut was scheduled by the link's wire: its
		// next hop is the link itself, the whole of the link's route.
		p.SetRoute(n.links[lane].route)
		return p, 0, nil
	case MailReach:
		act, err := n.routes.decodeMail(lane, payload)
		return act, 0, err
	default:
		return nil, 0, fmt.Errorf("fabric: unknown mail kind %d", kind)
	}
}

// OwnerOfLinkDir returns the shard owning directed link d (2i = A->B of
// topology link i, 2i+1 = B->A): the sending node's shard, where the
// direction's serialization queue — and therefore its counters — lives.
func (n *Net) OwnerOfLinkDir(d int) int {
	lk := n.wiring[d/2]
	if d%2 == 0 {
		return n.nodes[lk.A].sh.id
	}
	return n.nodes[lk.B].sh.id
}

// ShardTraffic is one shard's slice of the fabric's traffic accounting —
// written only by that shard's event loop, so in a distributed run only
// the shard's owner holds real values and reports them.
type ShardTraffic struct {
	Injected     uint64
	Delivered    uint64
	DeadDrops    uint64
	NoRouteDrops uint64
}

// TrafficOfShard snapshots shard s's counters. Barrier context only.
func (n *Net) TrafficOfShard(s int) ShardTraffic {
	sh := n.shards[s]
	return ShardTraffic{
		Injected:     sh.injected,
		Delivered:    sh.delivered,
		DeadDrops:    sh.deadDrops,
		NoRouteDrops: sh.noRouteDrops,
	}
}

// DirCounters snapshots directed link d's forwarding counters (the
// digest-relevant subset of ReadLinkCounters). Barrier context only.
func (n *Net) DirCounters(d int) (fwdBytes, fwdCells, drops uint64) {
	l := n.links[d]
	return l.q.FwdBytes(), l.q.Forwarded(), l.q.Drops
}

// DirTelemetry snapshots directed link d's telemetry tuple: DirCounters
// plus instantaneous queue occupancy. This is what a distributed peer
// ships per owned dir at a scrape boundary. Barrier context only.
func (n *Net) DirTelemetry(d int) (fwdBytes, fwdCells, drops uint64, queueBytes int) {
	l := n.links[d]
	return l.q.FwdBytes(), l.q.Forwarded(), l.q.Drops, l.q.Bytes()
}

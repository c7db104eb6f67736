package fabric

import (
	"encoding/binary"
	"strings"
	"testing"

	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/reach"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// codecFabric builds a small two-shard fabric of either route policy —
// what a distsim peer decodes mail against.
func codecFabric(t testing.TB, topoName string) *Net {
	t.Helper()
	g, err := topo.ByName(topoName, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := parsim.New(parsim.Config{Shards: 2, Lookahead: sim.Microsecond})
	n, err := NewSharded(eng, DefaultConfig(10e9, sim.Microsecond, 1), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// reachFrame hand-assembles a MailReach payload, so a test can put any
// value in any field.
func reachFrame(spine, port, cnt uint64, msgs ...reach.Message) []byte {
	buf := binary.AppendUvarint(nil, spine)
	buf = binary.AppendUvarint(buf, port)
	buf = binary.AppendUvarint(buf, cnt)
	for _, m := range msgs {
		buf = binary.AppendUvarint(buf, uint64(m.Origin))
		buf = binary.AppendUvarint(buf, uint64(m.Chunk))
		buf = append(buf, 0)
		for _, w := range m.Bits {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return buf
}

func cellFrame(size, dst uint64, seq int64) []byte {
	buf := binary.AppendUvarint([]byte{0}, size)
	buf = binary.AppendUvarint(buf, dst)
	return binary.AppendVarint(buf, seq)
}

// hostileReachFrames are the three frames that used to take the peer
// down: two counts straight into make(), and a port that survived
// decoding to panic inside applyReach.Act.
var hostileReachFrames = [][]byte{
	reachFrame(0, 0, 1<<62),
	reachFrame(0, 0, 100_000_000),
	reachFrame(0, 9999, 1, reach.Message{}),
}

// TestDecodeMailRejectsHostileFrames: every field of a frame is checked
// against the model, and a bad one is an error, never a panic now or
// later in the event loop.
func TestDecodeMailRejectsHostileFrames(t *testing.T) {
	clos := codecFabric(t, "clos")
	lane0 := clos.routes.(*reachProtocol).reachLane(0)
	good := reach.Message{Bits: [2]uint64{0xff}}
	cases := []struct {
		name    string
		kind    byte
		lane    int32
		payload []byte
		wantErr string
	}{
		{"reach count 1<<62", MailReach, lane0, hostileReachFrames[0], "count"},
		{"reach count 1e8", MailReach, lane0, hostileReachFrames[1], "count"},
		{"reach port 9999", MailReach, lane0, hostileReachFrames[2], "port"},
		{"reach spine out of range", MailReach, lane0, reachFrame(99, 0, 1, good), "spine"},
		{"reach chunk beyond the table", MailReach, lane0, reachFrame(0, 0, 1, reach.Message{Chunk: 7}), "chunk"},
		{"reach origin out of range", MailReach, lane0, reachFrame(0, 0, 1, reach.Message{Origin: 999}), "origin"},
		{"reach origin on another FE1's lane", MailReach, lane0 + 1, reachFrame(0, 0, 1, good), "lane"},
		{"reach truncated bitmap", MailReach, lane0, reachFrame(0, 0, 1, good)[:10], "truncated"},
		{"reach trailing bytes", MailReach, lane0, append(reachFrame(0, 0, 1, good), 0xaa), "trailing"},
		{"cell dst out of range", MailCell, 0, cellFrame(512, 9999, 1), "dst"},
		{"cell larger than a link queue", MailCell, 0, cellFrame(1<<40, 1, 1), "size"},
		{"cell trailing bytes", MailCell, 0, append(cellFrame(512, 1, 1), 0), "seq"},
		{"cell on a reach lane", MailCell, lane0, cellFrame(512, 1, 1), "lane"},
		{"cell on a negative lane", MailCell, -1, cellFrame(512, 1, 1), "lane"},
		{"unknown kind", 9, 0, nil, "kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			act, _, err := clos.DecodeMail(tc.kind, tc.lane, tc.payload)
			if err == nil {
				t.Fatalf("decoded to %T, want an error", act)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the %s", err, tc.wantErr)
			}
		})
	}
	// The same well-formed reach batch decodes on the Clos and is refused
	// by a fabric whose policy exchanges no reach mail.
	if _, _, err := clos.DecodeMail(MailReach, lane0, reachFrame(0, 0, 1, good)); err != nil {
		t.Fatalf("well-formed reach batch rejected: %v", err)
	}
	if _, _, err := codecFabric(t, "sshuffle").DecodeMail(MailReach, lane0, reachFrame(0, 0, 1, good)); err == nil {
		t.Fatal("recomputed graph accepted reach mail")
	}
}

// TestMailRoundTrip: what EncodeMail writes, DecodeMail rebinds to the
// same action on the replica.
func TestMailRoundTrip(t *testing.T) {
	n := codecFabric(t, "clos")
	r := n.routes.(*reachProtocol)
	spine := r.cl.NumFA + r.cl.NumFE1 + 1
	sent := applyReach{tbl: r.tbl[spine], spine: spine, slot: 2, msgs: reach.BuildMessages(3, r.tbl[r.cl.NumFA+3].ReachableSet(), r.cl.NumFA)}
	kind, payload, err := n.EncodeMail(parsim.Mail{Lane: r.reachLane(3), Act: sent})
	if err != nil || kind != MailReach {
		t.Fatalf("encode reach: kind %d, %v", kind, err)
	}
	act, _, err := n.DecodeMail(kind, r.reachLane(3), payload)
	if err != nil {
		t.Fatal(err)
	}
	got := act.(applyReach)
	if got.tbl != sent.tbl || got.spine != sent.spine || got.slot != sent.slot || len(got.msgs) != len(sent.msgs) || got.msgs[0] != sent.msgs[0] {
		t.Fatalf("reach batch came back as %+v, sent %+v", got, sent)
	}

	c := netsim.NewPacket()
	c.Size, c.Dst, c.Seq, c.Down = 512, 5, -77, true
	kind, payload, err = n.EncodeMail(parsim.Mail{Lane: 6, Act: c})
	if err != nil || kind != MailCell {
		t.Fatalf("encode cell: kind %d, %v", kind, err)
	}
	act, _, err = n.DecodeMail(kind, 6, payload)
	if err != nil {
		t.Fatal(err)
	}
	if p := act.(*netsim.Packet); p.Size != 512 || p.Dst != 5 || p.Seq != -77 || !p.Down {
		t.Fatalf("cell came back as %+v", p)
	}
}

// FuzzDecodeMail: whatever bytes arrive, on either route policy's
// fabric, DecodeMail returns an error or an action that executes and
// drains without a panic.
func FuzzDecodeMail(f *testing.F) {
	clos := codecFabric(f, "clos")
	lane0 := clos.routes.(*reachProtocol).reachLane(0)
	f.Add(false, MailCell, int32(6), cellFrame(512, 5, 42))
	f.Add(true, MailCell, int32(6), cellFrame(512, 5, 42))
	f.Add(false, MailReach, lane0, reachFrame(0, 0, 1, reach.Message{Bits: [2]uint64{0xff}}))
	for _, frame := range hostileReachFrames {
		f.Add(false, MailReach, lane0, frame)
	}
	f.Fuzz(func(t *testing.T, graph bool, kind byte, lane int32, payload []byte) {
		topoName := "clos"
		if graph {
			topoName = "sshuffle"
		}
		n := codecFabric(t, topoName)
		act, arg, err := n.DecodeMail(kind, lane, payload)
		if err != nil {
			return
		}
		act.Act(arg)
		n.eng.RunUntilQuiet(sim.Millisecond)
		if !n.eng.Quiet() {
			t.Fatal("decoded action left the fabric busy")
		}
		if n.Injected() != 0 || n.Delivered()+n.Drops() > 1 {
			t.Fatalf("one decoded action accounted as %d delivered, %d dropped", n.Delivered(), n.Drops())
		}
	})
}

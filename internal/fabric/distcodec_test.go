package fabric

import (
	"encoding/binary"
	"slices"
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
		{"cell of no bytes", MailCell, 0, cellFrame(0, 1, 1), "size"},
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
	one := reach.NewBitmap(r.cl.NumFA) // FE1 3 reaches FA 5 alone
	one.Set(5)
	sent := applyReach{r: r, spine: spine, slot: 2, msgs: reach.BuildMessages(3, one, r.cl.NumFA)}
	kind, payload, err := n.EncodeMail(parsim.Mail{Lane: r.reachLane(3), Act: sent})
	if err != nil || kind != MailReach {
		t.Fatalf("encode reach: kind %d, %v", kind, err)
	}
	act, _, err := n.DecodeMail(kind, r.reachLane(3), payload)
	if err != nil {
		t.Fatal(err)
	}
	got := act.(applyReach)
	if got.r != sent.r || got.spine != sent.spine || got.slot != sent.slot || len(got.msgs) != len(sent.msgs) || got.msgs[0] != sent.msgs[0] {
		t.Fatalf("reach batch came back as %+v, sent %+v", got, sent)
	}
	// Applied, the decoded batch changes the spine's table, and the
	// spine's spreader with it.
	before := r.tbl[spine].LinkSet(2).Clone()
	act.Act(0)
	if slices.Equal(before, r.tbl[spine].LinkSet(2)) {
		t.Fatal("the decoded reach batch changed nothing")
	}
	if err := checkSpray(n); err != nil {
		t.Fatalf("after the decoded reach batch: %v", err)
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

// A peer encodes a window's cells into its frame buffer and decodes the
// frames it receives: once the buffer and the shards' free lists have
// grown, neither allocates. Every directed link of a two-shard fabric
// carries one cell per window, taken from its sender's list; decoding
// takes from its receiver's, and the round trip gives it back there.
func TestMailCodecAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	n := codecFabric(t, "clos")
	var buf []byte
	var at []int // where each payload starts in buf
	window := func() {
		buf, at = buf[:0], at[:0]
		for d, l := range n.links {
			c := netsim.FreeListOf(l.q.Sim).Get()
			c.Size, c.Dst, c.Seq = 512, int32(d%n.NumFA()), int64(d)
			at = append(at, len(buf))
			var kind byte
			var err error
			if kind, buf, err = n.AppendMail(buf, parsim.Mail{Lane: int32(d), Act: c}); err != nil || kind != MailCell {
				t.Fatalf("encode: kind %d, %v", kind, err)
			}
		}
		at = append(at, len(buf))
		for d, l := range n.links {
			act, _, err := n.DecodeMail(MailCell, int32(d), buf[at[d]:at[d+1]])
			if err != nil {
				t.Fatal(err)
			}
			if c := act.(*netsim.Packet); c.Seq != int64(d) {
				t.Fatalf("lane %d: cell %d came back", d, c.Seq)
			}
			l.sh.cells.Put(act.(*netsim.Packet))
		}
	}
	window()
	if avg := testing.AllocsPerRun(100, window); avg != 0 {
		t.Fatalf("a window of %d cells allocates %.1f times", len(n.links), avg)
	}
}

// lastHop returns a directed link of n whose cells for its far end are
// counted on arrival, and that far end.
func lastHop(n *Net) (lane int32, dst uint64) {
	for d, l := range n.links {
		if l.home >= 0 {
			return int32(d), uint64(l.home)
		}
	}
	panic("fabric: no link counts its arrivals")
}

// FuzzDecodeMail: whatever bytes arrive, on either route policy's
// fabric, DecodeMail returns an error or an action that executes and
// drains without a panic, and leaves the spreaders what the tables say
// (checkSpray). A cell is delivered as a peer delivers it, on the shard
// its lane's link feeds, where a cell on its last hop is counted instead
// of scheduled.
func FuzzDecodeMail(f *testing.F) {
	clos := codecFabric(f, "clos")
	lane0 := clos.routes.(*reachProtocol).reachLane(0)
	f.Add(false, MailCell, int32(6), cellFrame(512, 5, 42))
	f.Add(true, MailCell, int32(6), cellFrame(512, 5, 42))
	last, home := lastHop(clos)
	f.Add(false, MailCell, last, cellFrame(512, home, 42)) // counted
	f.Add(false, MailCell, last, cellFrame(0, home, 42))
	f.Add(false, MailCell, last, cellFrame(512, 1<<31+home, 42))
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
		if kind == MailCell {
			n.eng.DeliverMail(n.links[lane].sh.id, parsim.Mail{At: sim.Microsecond, Lane: lane, Act: act, Arg: arg})
		} else {
			act.Act(arg)
		}
		n.eng.RunUntilQuiet(sim.Millisecond)
		if !n.eng.Quiet() {
			t.Fatal("decoded action left the fabric busy")
		}
		if err := checkSpray(n); err != nil {
			t.Fatal(err)
		}
		if n.Injected() != 0 || n.Delivered()+n.Drops() > 1 {
			t.Fatalf("one decoded action accounted as %d delivered, %d dropped", n.Delivered(), n.Drops())
		}
	})
}

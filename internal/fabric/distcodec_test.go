package fabric

import (
	"encoding/binary"
	"math"
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
// same action on the replica, or gives back as the same cell value — all
// 64 bits of its Seq, every flag — without a packet on either side. A
// cell with transport state, and a packet handed over as an action, are
// refused.
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

	for _, v := range []parsim.Value{
		{Size: 512, Dst: 5, Seq: -77, Down: true},
		{Size: 1, Dst: 0, Seq: math.MaxInt64, Ack: true, Echo: true},
		{Size: int32(n.Cfg.LinkBytes), Dst: int32(n.NumFA() - 1), Seq: math.MinInt64, CE: true, Down: true},
		{Size: 64, Dst: 3, Seq: 1<<40 + 7, Ack: true, CE: true, Echo: true, Down: true},
	} {
		kind, payload, err = n.EncodeMail(parsim.Mail{Lane: 6, Val: v})
		if err != nil || kind != MailCell {
			t.Fatalf("encode cell %+v: kind %d, %v", v, kind, err)
		}
		act, got, err := n.DecodeMail(kind, 6, payload)
		if err != nil {
			t.Fatal(err)
		}
		if act != nil || got != v {
			t.Fatalf("cell %+v came back as %T, %+v", v, act, got)
		}
	}
	if n.shards[0].cells.Len()+n.shards[1].cells.Len() != 0 {
		t.Fatal("the codec took or gave back packets")
	}
	for _, m := range []parsim.Mail{
		{Lane: 6, Val: parsim.Value{Size: 512, Dst: 5, Flow: new(int)}},
		{Lane: 6, Act: netsim.NewPacket()},
		{Lane: int32(len(n.links)), Val: parsim.Value{Size: 512, Dst: 5}},
	} {
		if _, _, err := n.EncodeMail(m); err == nil || !strings.Contains(err.Error(), "distributable") {
			t.Errorf("encoding %+v: %v, want a not-distributable error", m, err)
		}
	}
}

// A peer encodes a window's cells into its frame buffer and decodes the
// frames it receives: once the buffer has grown, neither allocates. Every
// directed link of a two-shard fabric carries one cell's value per window.
func TestMailCodecAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	n := codecFabric(t, "clos")
	var buf []byte
	var at []int // where each payload starts in buf
	window := func() {
		buf, at = buf[:0], at[:0]
		for d := range n.links {
			v := parsim.Value{Size: 512, Dst: int32(d % n.NumFA()), Seq: int64(d) << 40}
			at = append(at, len(buf))
			var kind byte
			var err error
			if kind, buf, err = n.AppendMail(buf, parsim.Mail{Lane: int32(d), Val: v}); err != nil || kind != MailCell {
				t.Fatalf("encode: kind %d, %v", kind, err)
			}
		}
		at = append(at, len(buf))
		for d := range n.links {
			_, v, err := n.DecodeMail(MailCell, int32(d), buf[at[d]:at[d+1]])
			if err != nil {
				t.Fatal(err)
			}
			if v.Seq != int64(d)<<40 {
				t.Fatalf("lane %d: cell %d came back", d, v.Seq)
			}
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
// (checkSpray). A cell's value encodes again to what decodes to itself,
// and is delivered as a peer delivers it, on the shard its lane's link
// feeds, whose lander counts a cell on its last hop instead of scheduling
// it.
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
		act, v, err := n.DecodeMail(kind, lane, payload)
		if err != nil {
			return
		}
		if kind == MailCell {
			k, again, err := n.AppendMail(nil, parsim.Mail{Lane: lane, Val: v})
			if err != nil {
				t.Fatalf("decoded cell %+v does not encode: %v", v, err)
			}
			if a, w, err := n.DecodeMail(k, lane, again); err != nil || a != nil || w != v {
				t.Fatalf("cell %+v re-encoded decodes to %T, %+v, %v", v, a, w, err)
			}
			n.eng.DeliverMail(n.links[lane].sh.id, parsim.Mail{At: sim.Microsecond, Lane: lane, Val: v})
		} else {
			act.Act(0)
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

// A cell never leaves its shard, and it crosses a cut the same way in
// process and between peers. Two replicas of a two-shard K=8 Clos each own
// one shard and step through the distributed seam (StepOwned with an
// emit), handing each other what leaves their owned shard as a peer does:
// encoded, decoded, delivered. No message on a directed link's lane
// carries a packet — every one is a value — and every cell's 64-bit id,
// injected in Seq, reaches its destination edge: the replicas together
// deliver exactly the ids an engine running both shards does.
func TestCellsCrossByValue(t *testing.T) {
	const cellsPerFA = 40
	build := func() (*Net, [][]int64) {
		g, err := ClosFor(8)
		if err != nil {
			t.Fatal(err)
		}
		eng := parsim.New(parsim.Config{Shards: 2, Lookahead: sim.Microsecond})
		n, err := NewSharded(eng, DefaultConfig(10e9, sim.Microsecond, 3), g, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]int64, n.NumFA()) // per edge, on its shard: the ids it received
		for fa := range n.NumFA() {
			n.SetEgress(fa, netsim.HandlerFunc(func(c *netsim.Packet) {
				got[fa] = append(got[fa], c.Seq)
				netsim.FreeListOf(n.EdgeSim(fa)).Put(c)
			}))
			sm := n.EdgeSim(fa)
			for i := range cellsPerFA {
				sm.AtLaneFunc(sim.Time(i)*100*sim.Nanosecond, 0, func() {
					c := netsim.FreeListOf(sm).Get()
					c.Size, c.Seq = 512, cellID(fa, i)
					n.Inject(c, fa, (fa+1+i)%n.NumFA())
				})
			}
		}
		return n, got
	}
	reached := func(per ...[][]int64) map[int64]int { // id -> the edge it reached
		m := map[int64]int{}
		for _, got := range per {
			for fa, ids := range got {
				for _, id := range ids {
					m[id] = fa
				}
			}
		}
		return m
	}
	one, delivered := build()
	one.eng.RunUntilQuiet(sim.Millisecond)
	want := reached(delivered)
	if len(want) != cellsPerFA*one.NumFA() {
		t.Fatalf("one engine delivered %d distinct ids, want %d", len(want), cellsPerFA*one.NumFA())
	}

	var reps [2]*Net
	var gots [2][][]int64
	for i := range reps {
		reps[i], gots[i] = build()
	}
	owned := [2][]bool{{true, false}, {false, true}}
	type entry struct {
		dst  int
		m    parsim.Mail
		kind byte
		pay  []byte
	}
	cells := 0
	for w := 0; w < 1000; w++ {
		var out [2][]entry
		for i, n := range reps {
			n.eng.StepOwned(owned[i], func(src, dst int, m parsim.Mail) {
				if m.Lane < int32(len(n.links)) {
					if m.Act != nil {
						t.Fatalf("window %d: lane %d carries %T, not a value", w, m.Lane, m.Act)
					}
					cells++
				}
				kind, pay, err := n.EncodeMail(m)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = append(out[i], entry{dst, m, kind, pay})
			})
		}
		for i, n := range reps {
			for _, e := range out[1-i] {
				act, v, err := n.DecodeMail(e.kind, e.m.Lane, e.pay)
				if err != nil {
					t.Fatal(err)
				}
				if act == nil && v != e.m.Val {
					t.Fatalf("window %d: value %+v decoded as %+v", w, e.m.Val, v)
				}
				n.eng.DeliverMail(e.dst, parsim.Mail{At: e.m.At, Lane: e.m.Lane, Act: act, Arg: e.m.Arg, Val: v})
			}
		}
		if reps[0].eng.OwnedPending(owned[0])+reps[1].eng.OwnedPending(owned[1]) == 0 {
			break
		}
	}
	if cells == 0 {
		t.Fatal("no cell crossed the cut")
	}
	got := reached(gots[0], gots[1])
	if len(got) != len(want) {
		t.Fatalf("the replicas delivered %d distinct ids, one engine %d", len(got), len(want))
	}
	for id, fa := range want {
		if g, ok := got[id]; !ok || g != fa {
			t.Fatalf("cell %#x reached edge %d (delivered %v) on the replicas, edge %d on one engine", id, g, ok, fa)
		}
	}
}

// cellID is a cell id that needs all 64 bits of Seq: the top bit and bits
// above 32 set, distinct per (edge, index).
func cellID(fa, i int) int64 { return math.MinInt64 | int64(fa)<<40 | int64(i)<<8 | 0x5a }

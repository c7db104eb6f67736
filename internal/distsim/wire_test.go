package distsim

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"stardust/internal/parsim"
	"stardust/internal/sim"
	"stardust/internal/telemetry"
)

// frame encodes one frame the way a connection would.
func frame(t testing.TB, typ byte, body []byte, compress bool) []byte {
	t.Helper()
	b, err := new(frameWriter).append(nil, typ, body, compress)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	var fw frameWriter
	fr := &frameReader{r: &wire, limit: maxFrame}
	bodies := [][]byte{nil, []byte("x"), bytes.Repeat([]byte("stardust "), 100), bytes.Repeat([]byte{7}, 200<<10)}
	for round := 0; round < 2; round++ { // second round runs on the Reset codecs
		for i, body := range bodies {
			b, err := fw.append(nil, byte(i+1), body, true)
			if err != nil {
				t.Fatal(err)
			}
			wire.Write(b)
		}
		for i, body := range bodies {
			typ, got, err := fr.read()
			if err != nil {
				t.Fatal(err)
			}
			if typ != byte(i+1) || !bytes.Equal(got, body) {
				t.Fatalf("frame %d came back as type %d, %d bytes (want %d)", i, typ, len(got), len(body))
			}
		}
	}
	if _, _, err := fr.read(); err != io.EOF {
		t.Fatalf("read past the last frame: %v, want EOF", err)
	}
}

// TestHostileFrames: what a stranger can send to a listening socket costs
// the receiver nothing it did not receive, and is an error.
func TestHostileFrames(t *testing.T) {
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	t.Run("length-prefix-only", func(t *testing.T) {
		hdr := []byte{0x10, 0, 0, 0, tXchg, 0} // "256 MiB follow", and nothing does
		var err error
		got := allocated(func() {
			_, _, err = (&frameReader{r: bytes.NewReader(hdr), limit: maxFrame}).read()
		})
		if err == nil {
			t.Fatal("a six-byte frame claiming 256 MiB was accepted")
		}
		if got >= 1<<20 {
			t.Fatalf("six hostile bytes made the reader allocate %d bytes", got)
		}
	})
	t.Run("deflate-bomb", func(t *testing.T) {
		var z bytes.Buffer
		zw, _ := flate.NewWriter(&z, flate.BestCompression)
		zeros := make([]byte, 1<<20)
		for i := 0; i < 64; i++ {
			zw.Write(zeros)
		}
		zw.Close()
		bomb := binary.BigEndian.AppendUint32(nil, uint32(2+z.Len()))
		bomb = append(bomb, tXchg, flagDeflate)
		bomb = append(bomb, z.Bytes()...)
		var err error
		got := allocated(func() {
			_, _, err = (&frameReader{r: bytes.NewReader(bomb), limit: 256 << 10}).read()
		})
		if err == nil || !strings.Contains(err.Error(), "limit") {
			t.Fatalf("a %d-byte frame inflating to 64 MiB: %v, want a limit error", len(bomb), err)
		}
		if got >= 1<<20 {
			t.Fatalf("a %d-byte bomb made an unidentified connection's reader allocate %d bytes", len(bomb), got)
		}
	})
	t.Run("oversized-before-identification", func(t *testing.T) {
		big := frame(t, tMeshHello, make([]byte, helloLimit+1), false)
		if _, _, err := (&frameReader{r: bytes.NewReader(big), limit: helloLimit}).read(); err == nil {
			t.Fatal("an unidentified connection got a frame past helloLimit accepted")
		}
	})
	t.Run("unknown-flags", func(t *testing.T) {
		if _, _, err := (&frameReader{r: bytes.NewReader([]byte{0, 0, 0, 3, tXchg, 0x80, 1}), limit: maxFrame}).read(); err == nil {
			t.Fatal("unknown frame flags were accepted")
		}
	})
}

// TestFrameAllocs holds the codec satellite: a frame below compressFloor
// costs no allocation to write or to read once the buffers exist.
func TestFrameAllocs(t *testing.T) {
	body := bytes.Repeat([]byte{0xa5}, 200)
	var wire bytes.Buffer
	var fw frameWriter
	var out []byte
	fr := &frameReader{r: &wire, limit: maxFrame}
	roundTrip := func() {
		out, _ = fw.append(out[:0], tXchg, body, true)
		wire.Write(out)
		if _, got, err := fr.read(); err != nil || len(got) != len(body) {
			t.Fatalf("round trip: %d bytes, %v", len(got), err)
		}
	}
	roundTrip()
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Fatalf("a 200-byte frame round trip allocates %.0f times", n)
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	// Mail-like bodies: varint entries compress, but not to nothing.
	mk := func(n int) []byte {
		body := make([]byte, 0, n)
		for i := 0; len(body) < n; i++ {
			body = appendEntry(body, mailEntry{dst: i % 4, at: sim.Time(1_000_000 + 1000*i), lane: int32(i * 7 % 96), kind: 1, pay: []byte{0, 0x80, 4, byte(i), byte(i >> 3)}})
		}
		return body[:n]
	}
	// "-plain" is the same frame written without DEFLATE, as on a link
	// between two peers of one host.
	for _, n := range []int{200, 4 << 10} {
		for _, deflate := range []bool{true, false} {
			name := fmt.Sprintf("%dB", n)
			if !deflate {
				name += "-plain"
			}
			b.Run(name, func(b *testing.B) {
				body := mk(n)
				var wire bytes.Buffer
				var fw frameWriter
				var out []byte
				fr := &frameReader{r: &wire, limit: maxFrame}
				b.SetBytes(int64(n))
				b.ReportAllocs()
				for b.Loop() {
					var err error
					if out, err = fw.append(out[:0], tXchg, body, deflate); err != nil {
						b.Fatal(err)
					}
					wire.Write(out)
					if _, got, err := fr.read(); err != nil || len(got) != n {
						b.Fatalf("read %d bytes, %v", len(got), err)
					}
				}
			})
		}
	}
}

// meshStranger dials a mesh listener, says hello with whatever the case
// wants to get wrong, and returns the answer.
func meshStranger(t *testing.T, addr string, send []byte) (byte, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := conn.Write(send); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrame(conn)
	if err != nil {
		t.Fatalf("no answer from the mesh listener: %v", err)
	}
	return typ, string(body)
}

// TestMeshHelloRejections: a connection to a peer's mesh listener that is
// not one of the neighbours this session expects — unknown, out-of-range
// or duplicate id, another session's token, another model's hash, another
// protocol version, not a HELLO at all — gets an ERROR frame and never
// holds a slot; the real neighbours still get theirs.
func TestMeshHelloRejections(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer lis.Close()
	m, err := NewModel(smallSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	const token, hash = 0x5eed, 0xfeedface
	s := &session{
		p:    &peer{lis: lis.(*net.TCPListener)},
		wm:   welcomeMsg{PeerID: 0, NPeers: 3},
		m:    m,
		hash: hash,
	}
	type meshResult struct {
		links []*meshLink
		err   error
	}
	done := make(chan meshResult, 1)
	go func() {
		links, err := s.connectMesh(startMsg{Mesh: []string{lis.Addr().String(), "", ""}, Token: token})
		done <- meshResult{links, err}
	}()
	hello := func(v, id int, tok, h uint64) []byte {
		b, _ := json.Marshal(meshHelloMsg{Version: v, Peer: id, Token: tok, Hash: h})
		return frame(t, tMeshHello, b, false)
	}
	addr := lis.Addr().String()
	for _, bad := range []struct {
		name string
		send []byte
		want string
	}{
		{"unknown id", hello(protoVersion, 7, token, hash), "no free slot"},
		{"negative id", hello(protoVersion, -1, token, hash), "no free slot"},
		{"own id", hello(protoVersion, 0, token, hash), "no free slot"},
		{"wrong token", hello(protoVersion, 1, token+1, hash), "token"},
		{"wrong hash", hello(protoVersion, 1, token, hash+1), "different model"},
		{"wrong version", hello(protoVersion-1, 1, token, hash), "version"},
		{"not a hello", frame(t, tXchg, []byte{0, 0, 0, 0}, false), "instead of a mesh HELLO"},
		{"not json", frame(t, tMeshHello, []byte("{"), false), "bad mesh HELLO"},
		{"length prefix only", []byte{0x10, 0, 0, 0, tMeshHello, 0}, "bad frame length"},
	} {
		if typ, body := meshStranger(t, addr, bad.send); typ != tError || !strings.Contains(body, bad.want) {
			t.Errorf("%s: answered frame %d %q, want an ERROR naming %q", bad.name, typ, body, bad.want)
		}
	}
	if typ, _ := meshStranger(t, addr, hello(protoVersion, 1, token, hash)); typ != tMeshHello {
		t.Fatalf("the real peer 1 was answered with frame %d", typ)
	}
	if typ, body := meshStranger(t, addr, hello(protoVersion, 1, token, hash)); typ != tError || !strings.Contains(body, "no free slot") {
		t.Errorf("duplicate id: answered frame %d %q, want an ERROR", typ, body)
	}
	if typ, _ := meshStranger(t, addr, hello(protoVersion, 2, token, hash)); typ != tMeshHello {
		t.Fatalf("the real peer 2 was answered with frame %d", typ)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.links[0] != nil || r.links[1] == nil || r.links[2] == nil {
			t.Fatalf("mesh slots after the strangers: %v", r.links)
		}
		closeLinks(r.links)
	case <-time.After(30 * time.Second):
		t.Fatal("connectMesh never completed")
	}
}

// liveFrames runs a short model the way a peer does and returns real
// frame bodies: the fuzz targets' seed corpus follows the format by
// construction.
func liveFrames(t testing.TB) (xchg, done [][]byte) {
	t.Helper()
	spec := smallSpec(2)
	spec.Telem = 5 * sim.Microsecond
	m, err := NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	owned := []bool{true, false}
	every := spec.telemEvery(m.Eng.Lookahead())
	var dirs, fas []int
	for d := 0; d < 2*m.Net.NumLinks(); d++ {
		if owned[m.Net.OwnerOfLinkDir(d)] {
			dirs = append(dirs, d)
		}
	}
	for fa := range m.Net.NumFA() {
		if owned[m.Net.ShardOfFA(fa)] {
			fas = append(fas, fa)
		}
	}
	for w := 0; w < 12; w++ {
		var entries []byte
		count := 0
		end := m.Eng.StepOwned(owned, func(src, dst int, mail parsim.Mail) {
			kind, pay, err := m.Net.EncodeMail(mail)
			if err != nil {
				t.Fatal(err)
			}
			entries = appendEntry(entries, mailEntry{dst: dst, at: mail.At, lane: mail.Lane, kind: kind, arg: mail.Arg, pay: pay})
			count++
		})
		head := binary.AppendUvarint(nil, uint64(w))
		head = binary.AppendUvarint(head, uint64(m.Eng.OwnedPending(owned)))
		head = binary.AppendUvarint(head, uint64(count))
		x := binary.AppendUvarint(append([]byte(nil), head...), uint64(count))
		xchg = append(xchg, append(x, entries...))
		d := binary.AppendUvarint(append([]byte(nil), head...), uint64(len(entries)))
		done = append(done, appendTelemSection(d, m, dirs, fas, end, m.Eng.Lookahead(), every))
	}
	return xchg, done
}

func FuzzReadFrame(f *testing.F) {
	body := bytes.Repeat([]byte("mail "), 300)
	f.Add(frame(f, tXchg, body, true))
	f.Add(frame(f, tDone, body[:100], true))
	f.Add(frame(f, tHello, []byte(`{"v":5,"mesh":"127.0.0.1:1"}`), false))
	f.Add(append(frame(f, tStats, nil, false), frame(f, tStall, []byte{1, 2}, false)...))
	f.Add([]byte{0x10, 0, 0, 0, tXchg, 0})
	f.Add([]byte{0, 0, 0, 3, tXchg, flagDeflate, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		// A small limit keeps a found bomb from costing the fuzzing host
		// what it would cost a victim; the limit logic is the same.
		const limit = 1 << 16
		fr := &frameReader{r: bytes.NewReader(data), limit: limit}
		for {
			typ, body, err := fr.read()
			if err != nil {
				return
			}
			if len(body) > limit {
				t.Fatalf("frame %d came back with %d bytes past the %d limit", typ, len(body), limit)
			}
			// Whatever was accepted must survive the writer unchanged.
			again := frame(t, typ, body, true)
			typ2, body2, err := (&frameReader{r: bytes.NewReader(again), limit: limit}).read()
			if err != nil || typ2 != typ || !bytes.Equal(body2, body) {
				t.Fatalf("accepted frame does not round-trip: %v", err)
			}
		}
	})
}

// FuzzWindowFrames throws bytes at the three parsers that read them off a
// mesh or coordinator socket in the window loop — XCHG (against a live
// replica, which the mail is injected into), DONE (the coordinator's count
// and telemetry merge, with and without a section expected: which 1 and 4)
// and the mesh HELLO. Errors are fine; panics, hangs and runaway allocation
// are not.
func FuzzWindowFrames(f *testing.F) {
	xchg, done := liveFrames(f)
	for i := range xchg {
		f.Add(byte(0), xchg[i])
		f.Add(byte(1), done[i])
	}
	f.Add(byte(4), mailDone(f))
	hello, _ := json.Marshal(meshHelloMsg{Version: protoVersion, Peer: 1, Token: 7, Hash: 9})
	f.Add(byte(2), frame(f, tMeshHello, hello, false))
	f.Add(byte(2), frame(f, tError, []byte("no"), false))
	f.Add(byte(0), []byte{0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	spec := smallSpec(2)
	spec.Telem = 5 * sim.Microsecond
	var s *session
	var c *coord
	uses := 0
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		if uses%512 == 0 { // injected mail piles up in a replica that never steps
			m, err := NewModel(spec)
			if err != nil {
				t.Fatal(err)
			}
			s = &session{m: m, owned: []bool{false, true}, hash: 9, wm: welcomeMsg{PeerID: 1, NPeers: 2}}
			cm, err := NewModel(spec)
			if err != nil {
				t.Fatal(err)
			}
			c = &coord{cfg: CoordConfig{Spec: spec, Peers: 2}, model: cm, owners: OwnersFor(2, 2)}
		}
		uses++
		switch which % 3 {
		case 0:
			s.deliverXchg(0, data)
		case 1:
			telem := which&4 == 0
			d, err := parseDone(data, 0, telem)
			if err != nil {
				return
			}
			if !telem {
				if d.body != nil {
					t.Fatalf("a DONE without telemetry kept %d bytes", len(d.body))
				}
				return
			}
			ndirs, numFA := 2*c.model.Net.NumLinks(), c.model.Net.NumFA()
			acc := telemetry.Snapshot{Dirs: make([]telemetry.DirSample, ndirs), Sinks: make([]telemetry.SinkSample, numFA)}
			c.mergeTelem([][]byte{d.body, d.body}, 0, &acc, ndirs, numFA)
		case 2:
			pc := &peerConn{fr: frameReader{r: bytes.NewReader(data), limit: helloLimit}}
			if got, err := readMeshHello(pc); err == nil {
				s.checkMeshHello(got, 7, func(id int) bool { return id == 0 })
			}
		}
	})
}

// mailDone is a DONE frame for window 0 the way a peer that copied its mail
// into it would write one: counts, then the entries.
func mailDone(t testing.TB) []byte {
	var entries []byte
	for i := range 3 {
		entries = appendEntry(entries, mailEntry{dst: 1, at: sim.Time(1000 * (i + 1)), lane: int32(i), kind: 1, pay: []byte{byte(i)}})
	}
	b := binary.AppendUvarint(nil, 0) // window
	b = binary.AppendUvarint(b, 5)    // pending
	b = binary.AppendUvarint(b, 3)    // entries
	b = binary.AppendUvarint(b, uint64(len(entries)))
	return append(b, entries...)
}

// TestDoneRejectsMail: a DONE body is its counts and, when Spec.Telem > 0,
// one telemetry section. Mail entries after the counts are an error —
// from parseDone without telemetry, from mergeTelem with it — and so is a
// missing section.
func TestDoneRejectsMail(t *testing.T) {
	frame := mailDone(t)
	if _, err := parseDone(frame, 0, false); err == nil || !strings.Contains(err.Error(), "bytes past its counts") {
		t.Fatalf("parseDone without telemetry: %v, want the trailing bytes refused", err)
	}
	d, err := parseDone(frame, 0, true)
	if err != nil {
		t.Fatalf("parseDone with telemetry: %v", err)
	}
	m, err := NewModel(smallSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	c := &coord{model: m}
	ndirs, numFA := 2*m.Net.NumLinks(), m.Net.NumFA()
	acc := telemetry.Snapshot{Dirs: make([]telemetry.DirSample, ndirs), Sinks: make([]telemetry.SinkSample, numFA)}
	if err := c.mergeTelem([][]byte{d.body}, 0, &acc, ndirs, numFA); err == nil {
		t.Fatal("mergeTelem took mail entries for a telemetry section")
	}
	counts := frame[:4]
	if _, err := parseDone(counts, 0, false); err != nil {
		t.Fatalf("a bare DONE: %v", err)
	}
	if _, err := parseDone(counts, 0, true); err == nil || !strings.Contains(err.Error(), "lacks its telemetry section") {
		t.Fatalf("a DONE without its section: %v", err)
	}
}

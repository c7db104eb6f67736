package distsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"stardust/internal/sim"
)

// ringsHere reports whether mesh links between peers of this host run over
// shared-memory rings: the platform maps files and the ring directory
// takes one.
func ringsHere(t testing.TB) bool {
	t.Helper()
	mem, name, err := createRing(ringDir(), ringHeader{size: ringMin})
	if err != nil {
		return false
	}
	unmapFile(mem)
	os.Remove(filepath.Join(ringDir(), name))
	return true
}

// ringPair is two ends of one mesh link on a ring of size bytes each way,
// set up as the mesh handshake leaves them: acceptor first, dialer second.
func ringPair(t testing.TB, force pollForce, size int) [2]*meshLink {
	t.Helper()
	a, b := connPair(t)
	dir := ringDir()
	h := ringHeader{token: 1, hash: 2, acceptor: 0, dialer: 1, size: size}
	mem, name, err := createRing(dir, h)
	if err != nil {
		t.Skipf("no shared-memory ring on this host: %v", err)
	}
	defer os.Remove(filepath.Join(dir, name))
	other, err := openRing(dir, name, h)
	if err != nil {
		unmapFile(mem)
		t.Fatal(err)
	}
	var ls [2]*meshLink
	for i, end := range []struct {
		conn net.Conn
		mem  []byte
	}{{a, mem}, {b, other}} {
		pc := newPeerConn(end.conn, 0)
		pc.trust()
		pc.rd.gov = &pollGovernor{force: force}
		ls[i] = &meshLink{id: 1 - i, pc: pc, ring: end.mem, sent: make(chan error, 1)}
		if err := ls[i].onRing(i == 1); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { releaseLinks(ls[:]) })
	return ls
}

// ownRingFiles lists the ring files this process made that still exist.
func ownRingFiles(t *testing.T) []string {
	t.Helper()
	own, err := filepath.Glob(filepath.Join(ringDir(), ringPrefix+strconv.Itoa(os.Getpid())+"-*"))
	if err != nil {
		t.Fatal(err)
	}
	return own
}

// TestTransportParity: the same Spec gives the same bytes whichever way its
// mesh links carry them — RunLocal's outcome (digest, delivered and event
// counts) and Record's STREC1 stream, over rings and over sockets — the
// frames are counted alike, and the links say which way that was.
func TestTransportParity(t *testing.T) {
	rings := ringsHere(t)
	for _, k := range []int{4, 8} {
		for _, shards := range []int{2, 4} {
			spec := Spec{K: k, Seed: 11, Shards: shards, Dur: 120 * sim.Microsecond, Load: 0.7, CellBytes: 512, Hotspot: 1, Telem: 10 * sim.Microsecond}
			if k == 8 {
				spec.Dur = 30 * sim.Microsecond
			}
			want := localOutcome(t, spec)
			var wantStream bytes.Buffer
			if _, err := Record(spec, &wantStream); err != nil {
				t.Fatal(err)
			}
			for npeers := 2; npeers <= min(3, shards); npeers++ {
				for _, tcp := range []bool{false, true} {
					name := fmt.Sprintf("k%d/%dshards/%dpeers/ring", k, shards, npeers)
					if tcp {
						name = strings.TrimSuffix(name, "ring") + "tcp"
					}
					t.Run(name, func(t *testing.T) {
						var stream bytes.Buffer
						stats := NewCoordStats()
						got, err := serveChaos(t, spec, npeers, npeers, CoordConfig{Stream: &stream, Stats: stats}, &chaos{tcp: tcp})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("outcome diverged:\n got %+v\nwant %+v", got, want)
						}
						if !bytes.Equal(stream.Bytes(), wantStream.Bytes()) {
							t.Fatalf("stream differs from Record's (%d vs %d bytes)", stream.Len(), wantStream.Len())
						}
						snap := stats.Snapshot()
						if snap.WireBytes == 0 || snap.RawBytes != snap.WireBytes {
							t.Fatalf("the window loop's frames went uncounted: %d wire bytes, %d raw", snap.WireBytes, snap.RawBytes)
						}
						wantRings := 0
						if rings && !tcp {
							wantRings = npeers - 1
						}
						for _, p := range snap.Peers {
							if p.RingLinks != wantRings {
								t.Fatalf("peer %d ran %d of its %d links over a ring, want %d", p.Peer, p.RingLinks, npeers-1, wantRings)
							}
						}
					})
				}
			}
		}
	}
}

// TestRingFilesRemoved: a ring file lives from the acceptor's offer to the
// dialer's answer. None is left after a clean run, after a STALL and the
// re-join that follows it, or after an offer the dialer refused.
func TestRingFilesRemoved(t *testing.T) {
	if !ringsHere(t) {
		t.Skip("no shared-memory rings on this host")
	}
	if own := ownRingFiles(t); len(own) > 0 {
		t.Fatalf("ring files before the runs: %v", own)
	}
	spec := smallSpec(4)
	if _, err := serveWith(t, spec, 3, CoordConfig{}); err != nil {
		t.Fatal(err)
	}
	if own := ownRingFiles(t); len(own) > 0 {
		t.Fatalf("ring files after a clean run: %v", own)
	}
	var log syncBuffer
	if _, err := serveChaos(t, spec, 3, 4, CoordConfig{Rejoin: true, Log: &log}, dieOnce(1, 60)); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "accounting resumes at window") {
		t.Fatalf("the fault was never injected\n%s", log.String())
	}
	if own := ownRingFiles(t); len(own) > 0 {
		t.Fatalf("ring files after a re-join: %v", own)
	}
	// An acceptor that offers its ring to a dialer answering ERROR.
	s, lis := meshSession(t, 0, 2)
	s.p.chaos.meshWait = time.Second // the slot stays empty until then
	done := make(chan error, 1)
	go func() {
		links, err := s.connectMesh(startMsg{Mesh: []string{lis.Addr().String(), ""}, Token: 1})
		releaseLinks(links)
		done <- err
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hb, _ := json.Marshal(meshHelloMsg{Version: protoVersion, Peer: 1, Token: 1, Hash: s.hash})
	conn.Write(frame(t, tMeshHello, hb))
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if typ, body, err := readFrame(conn); err != nil || typ != tMeshHello || !strings.Contains(string(body), ringPrefix) {
		t.Fatalf("no ring offered: frame %d %q, %v", typ, body, err)
	}
	conn.Write(frame(t, tError, []byte("no, thank you")))
	if err := <-done; err == nil {
		t.Fatal("connectMesh took a slot from a neighbour that refused its ring")
	}
	if own := ownRingFiles(t); len(own) > 0 {
		t.Fatalf("ring files after a refused offer: %v", own)
	}
}

// meshSession is a session of peer me of npeers, with a mesh listener,
// ready for connectMesh.
func meshSession(t *testing.T, me, npeers int) (*session, net.Listener) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(func() { lis.Close() })
	m, err := NewModel(smallSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	return &session{
		p:    &peer{lis: lis.(*net.TCPListener), chaos: &chaos{meshWait: 5 * time.Second}},
		wm:   welcomeMsg{PeerID: me, NPeers: npeers},
		m:    m,
		hash: 0xfeedface,
	}, lis
}

// TestMeshRingOfferRefusals plays a neighbour's acceptor by hand and
// offers the dialer rings it must not take. A malformed offer — a path, a
// symbolic link, a file of another size than its header declares, a
// header made for another link — is refused with an ERROR frame and fails
// the handshake, like a bad HELLO; one that merely cannot be opened here
// (no such file) leaves the link on its socket.
func TestMeshRingOfferRefusals(t *testing.T) {
	if !ringsHere(t) {
		t.Skip("no shared-memory rings on this host")
	}
	const token = 0x5eed
	dir := ringDir()
	s, _ := meshSession(t, 1, 2)
	link := ringHeader{token: token, hash: s.hash, acceptor: 0, dialer: 1, size: ringMin}
	// ring makes a ring file for h and returns its name; the test removes it.
	ring := func(h ringHeader) string {
		mem, name, err := createRing(dir, h)
		if err != nil {
			t.Fatal(err)
		}
		unmapFile(mem)
		t.Cleanup(func() { os.Remove(filepath.Join(dir, name)) })
		return name
	}
	nonce := 0
	unused := func() string {
		nonce++
		return fmt.Sprintf("%s%d-%016x", ringPrefix, os.Getpid(), 0xdead0000+nonce)
	}
	symlink := unused()
	if err := os.Symlink(filepath.Join(dir, ring(link)), filepath.Join(dir, symlink)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Remove(filepath.Join(dir, symlink)) })
	grown := ring(link)
	if f, err := os.OpenFile(filepath.Join(dir, grown), os.O_WRONLY|os.O_APPEND, 0); err != nil {
		t.Fatal(err)
	} else {
		f.Write([]byte{0})
		f.Close()
	}
	otherToken, otherHash, otherIDs := link, link, link
	otherToken.token++
	otherHash.hash++
	otherIDs.acceptor, otherIDs.dialer = 1, 0

	for _, c := range []struct {
		name, offer string
		refused     string // what the ERROR says; empty: the dialer stays on TCP
	}{
		{"path", "../" + ring(link), "not a ring name"},
		{"absolute path", filepath.Join(dir, ring(link)), "not a ring name"},
		{"not ours", "passwd", "not a ring name"},
		{"symbolic link", symlink, "symbolic link"},
		{"wrong size", grown, "its header declares"},
		{"wrong token", ring(otherToken), "token"},
		{"wrong hash", ring(otherHash), "hash"},
		{"wrong ids", ring(otherIDs), "made for peers 1 and 0"},
		{"no such file", unused(), ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			acceptor, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer acceptor.Close()
			done := make(chan error, 1)
			go func() {
				links, err := s.connectMesh(startMsg{Mesh: []string{acceptor.Addr().String(), ""}, Token: token})
				releaseLinks(links)
				done <- err
			}()
			conn, err := acceptor.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			if typ, _, err := readFrame(conn); err != nil || typ != tMeshHello {
				t.Fatalf("the dialer opened with frame %d, %v", typ, err)
			}
			hb, _ := json.Marshal(meshHelloMsg{Version: protoVersion, Peer: 0, Token: token, Hash: s.hash, Ring: c.offer})
			conn.Write(frame(t, tMeshHello, hb))
			typ, body, err := readFrame(conn)
			if err != nil {
				t.Fatalf("no answer to the offer: %v", err)
			}
			if c.refused == "" {
				if typ != tRing || !bytes.Equal(body, []byte{0}) {
					t.Fatalf("answered frame %d %q, want RING 0", typ, body)
				}
				conn.Close()
				<-done
				return
			}
			if typ != tError || !strings.Contains(string(body), "ring offer refused") || !strings.Contains(string(body), c.refused) {
				t.Fatalf("answered frame %d %q, want an ERROR naming %q", typ, body, c.refused)
			}
			var lost *meshError
			if err := <-done; !errors.As(err, &lost) || lost.neighbour != 0 {
				t.Fatalf("connectMesh returned %v, want a lost link to peer 0", err)
			}
		})
	}
}

// FuzzMeshRingOffer holds openRing to its contract on any name and any
// file behind it: it never panics, never opens anything but a bare ring
// name in its directory, and maps only a file that is the ring made for
// the link it was asked about, at the size that ring's header declares.
func FuzzMeshRingOffer(f *testing.F) {
	want := ringHeader{token: 0x5eed, hash: 0xfeedface, acceptor: 0, dialer: 1}
	file := func(h ringHeader) []byte {
		dir := f.TempDir()
		mem, name, err := createRing(dir, h)
		if err != nil {
			f.Skipf("no shared-memory ring on this host: %v", err)
		}
		unmapFile(mem)
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	good := want
	good.size = ringMin
	name := fmt.Sprintf("%s%d-%016x", ringPrefix, 42, 7)
	valid := file(good)
	f.Add(name, valid)
	f.Add(name, []byte(nil))                              // no such file
	f.Add(name, valid[:len(valid)-1])                     // short of its declared size
	f.Add(name, append(valid[:len(valid):len(valid)], 0)) // beyond it
	f.Add(name, valid[:ringData-1])                       // not even a header
	for _, h := range []ringHeader{{token: 1, hash: good.hash, dialer: 1, size: ringMin}, {token: good.token, hash: 1, dialer: 1, size: ringMin}, {token: good.token, hash: good.hash, acceptor: 1, size: ringMin}} {
		f.Add(name, file(h))
	}
	huge := append([]byte(nil), valid...)
	huge[32], huge[33], huge[34], huge[35] = 0, 0, 0, 0x80 // a 2 GiB ring
	f.Add(name, huge)
	busy := append([]byte(nil), valid...)
	busy[ringLine] = 1 // a tail already moved
	f.Add(name, busy)
	f.Add("../"+name, valid)
	f.Add("/etc/passwd", []byte(nil))
	f.Add(name+"/..", valid)
	f.Add(strings.ToUpper(name), valid)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, name string, content []byte) {
		if isRingName(name) && len(content) > 0 {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, content, 0o600); err != nil {
				t.Fatal(err)
			}
			defer os.Remove(path)
		}
		mem, err := openRing(dir, name, want)
		var refused ringRefusal
		switch {
		case !isRingName(name):
			if !errors.As(err, &refused) {
				t.Fatalf("%q is no ring name, and openRing said %v", name, err)
			}
		case err == nil:
			defer unmapFile(mem)
			h, perr := parseRingHeader(content)
			if perr != nil || h.token != want.token || h.hash != want.hash || h.acceptor != want.acceptor || h.dialer != want.dialer ||
				len(content) != ringData+2*h.size || len(mem) != len(content) {
				t.Fatalf("mapped %d bytes of a %d-byte file whose header is %+v (%v)", len(mem), len(content), h, perr)
			}
		case len(content) == 0:
			if errors.As(err, &refused) {
				t.Fatalf("a missing file was refused rather than passed over: %v", err)
			}
		default:
			if !errors.As(err, &refused) {
				t.Fatalf("a malformed ring file was passed over, not refused: %v", err)
			}
		}
	})
}

// TestRingHalf: the ring's bytes come out as they went in across the wrap,
// and counters the other side has garbled are an error, not a panic.
func TestRingHalf(t *testing.T) {
	words := make([]uint64, (ringData+2*ringMin)/8) // the shared words want 8-byte alignment
	mem := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
	down, up := ringHalves(mem)
	var in, out bytes.Buffer
	buf := make([]byte, 100)
	for i := 0; i < 50; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, 1+i*7%150)
		n, err := down.put(chunk)
		if err != nil {
			t.Fatal(err)
		}
		in.Write(chunk[:n])
		if n, err = down.take(buf[:1+i*3%100]); err != nil {
			t.Fatal(err)
		}
		out.Write(buf[:n])
	}
	for {
		n, err := down.take(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		out.Write(buf[:n])
	}
	if !bytes.Equal(in.Bytes(), out.Bytes()) {
		t.Fatalf("%d bytes went in, %d came out differently", in.Len(), out.Len())
	}
	if n, _ := up.take(buf); n != 0 {
		t.Fatal("one direction's bytes showed in the other")
	}
	up.tail.Store(up.head.Load() + ringMin + 1)
	if _, err := up.take(buf); err != errRingCorrupt {
		t.Fatalf("take on a garbled tail: %v", err)
	}
	if _, err := up.put(buf); err != errRingCorrupt {
		t.Fatalf("put on a garbled tail: %v", err)
	}
}

// TestRingReadEquivalence is TestPolledReadEquivalence over a ring: a
// read returns the bytes the far end wrote, cut at any boundary, however
// it waits — found waiting, caught polling, woken by the bell — then EOF
// once the far end has closed, the closed-connection error after a local
// Close, and the deadline's timeout from a neighbour that stays silent.
func TestRingReadEquivalence(t *testing.T) {
	stream := append(frame(t, tXchg, []byte("the first of two frames")), frame(t, tXchg, []byte("and the second"))...)
	type result struct {
		got []byte
		err error
	}
	for _, mode := range pollModes {
		t.Run(mode.name, func(t *testing.T) {
			for cut := 1; cut < len(stream); cut++ {
				ls := ringPair(t, mode.force, ringMin)
				near, far := ls[0], ls[1]
				read := func(n int) <-chan result {
					ch := make(chan result, 1)
					go func() {
						b := make([]byte, n)
						k, err := io.ReadFull(&near.pc.rd, b)
						ch <- result{b[:k], err}
					}()
					return ch
				}
				for _, part := range [][]byte{stream[:cut], stream[cut:]} {
					ch := read(len(part))
					if err := far.pc.writeAll(part); err != nil {
						t.Fatal(err)
					}
					if r := <-ch; r.err != nil || string(r.got) != string(part) {
						t.Fatalf("cut at %d of %d: read %q, %v; want %q", cut, len(stream), r.got, r.err, part)
					}
				}
				ch := read(1)
				far.pc.conn.Close()
				if r := <-ch; r.err != io.EOF {
					t.Fatalf("cut at %d: read past the end of the stream: %q, %v; want EOF", cut, r.got, r.err)
				}
			}
			t.Run("closed", func(t *testing.T) {
				near := ringPair(t, mode.force, ringMin)[0]
				near.pc.conn.Close()
				if _, _, err := near.pc.fr.read(); !errors.Is(err, net.ErrClosed) {
					t.Fatalf("read on a closed link: %v, want net.ErrClosed", err)
				}
				if _, err := near.pc.offer([]byte{1}); !errors.Is(err, net.ErrClosed) {
					t.Fatalf("write on a closed link: %v, want net.ErrClosed", err)
				}
			})
			t.Run("silent", func(t *testing.T) {
				near := ringPair(t, mode.force, ringMin)[0]
				near.pc.io = 50 * time.Millisecond
				_, _, err := near.pc.read()
				var ne net.Error
				if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
					t.Fatalf("read from a silent neighbour: %v, want the deadline's timeout", err)
				}
			})
		})
	}
}

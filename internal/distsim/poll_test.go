package distsim

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"stardust/internal/sim"
)

// TestPollGovernor scripts the back-off: the governor is a function of the
// outcomes it is told, with no clock to fake.
func TestPollGovernor(t *testing.T) {
	// sitOut counts the reads g parks at once before it polls again.
	sitOut := func(g *pollGovernor) int {
		n := 0
		for !g.next() {
			n++
		}
		return n
	}
	var g pollGovernor
	if !g.next() || !g.polling() {
		t.Fatal("a fresh link does not poll on its first read")
	}
	for i := 1; i < pollMisses; i++ {
		g.polled(false)
		if !g.next() || !g.polling() {
			t.Fatalf("polling stopped after %d misses, before pollMisses = %d", i, pollMisses)
		}
	}
	// A frame caught by polling forgives the misses before it.
	g.polled(true)
	for i := 1; i < pollMisses; i++ {
		g.polled(false)
	}
	if !g.next() {
		t.Fatal("a caught frame did not reset the miss count")
	}
	g.polled(false)
	if g.polling() {
		t.Fatalf("still polling after %d consecutive misses", pollMisses)
	}
	// Every fruitless probe doubles the hold, up to the cap.
	for want := pollHoldMin; ; want = min(2*want, pollHoldCap) {
		if got := sitOut(&g); got != want {
			t.Fatalf("sat out %d reads before the probe, want %d", got, want)
		}
		if g.polling() {
			t.Fatal("a probe counts as polling")
		}
		g.polled(false)
		if want == pollHoldCap && g.hold == pollHoldCap {
			if got := sitOut(&g); got != pollHoldCap {
				t.Fatalf("hold grew past its cap: sat out %d", got)
			}
			break
		}
	}
	// A probe that catches its frame switches polling back on, and the next
	// back-off starts from the shortest hold again.
	g.polled(true)
	if !g.polling() || !g.next() {
		t.Fatal("a successful probe did not resume polling")
	}
	for i := 0; i < pollMisses; i++ {
		g.polled(false)
	}
	if got := sitOut(&g); got != pollHoldMin {
		t.Fatalf("after a reset the first hold is %d reads, want %d", got, pollHoldMin)
	}

	always, never := pollGovernor{force: pollAlways}, pollGovernor{force: pollNever}
	for i := 0; i < 4*pollMisses; i++ {
		always.polled(false)
		never.polled(true)
		if !always.next() || !always.polling() || never.next() || never.polling() {
			t.Fatal("a forced governor changed its mind")
		}
	}
}

var pollModes = []struct {
	name  string
	force pollForce
}{{"governed", pollGoverned}, {"poll-always", pollAlways}, {"poll-never", pollNever}}

// TestPollModes runs the tests that hold the window loop to its contract —
// the outcome of RunLocal, every recovery, the deterministic abort, no
// deadlock with 4 KiB socket buffers — with every mesh link forced to poll
// on every read and on none: whatever the governor decides at run time, it
// decides between two paths that both pass.
func TestPollModes(t *testing.T) {
	spec := smallSpec(4)
	want := localOutcome(t, spec)
	for _, mode := range pollModes[1:] {
		with := func(c *chaos) *chaos {
			if c == nil {
				c = &chaos{}
			}
			c.poll = mode.force
			return c
		}
		t.Run(mode.name, func(t *testing.T) {
			t.Run("matches-local", func(t *testing.T) {
				for _, npeers := range []int{2, 3} {
					got, err := serveChaos(t, spec, npeers, npeers, CoordConfig{Stats: NewCoordStats()}, with(nil))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%d peers: outcome diverged:\n got %+v\nwant %+v", npeers, got, want)
					}
				}
			})
			t.Run("recovery", func(t *testing.T) { testRecovery(t, with) })
			t.Run("recovery-after-last-window", func(t *testing.T) { testRecoveryAfterLastWindow(t, with) })
			t.Run("rejoin-restores-digest", func(t *testing.T) {
				got, err := serveChaos(t, spec, 2, 3, CoordConfig{Rejoin: true}, with(dieOnce(0, 40)))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("restored outcome diverged:\n got %+v\nwant %+v", got, want)
				}
			})
			t.Run("mid-window-disconnect", func(t *testing.T) {
				_, err := serveChaos(t, smallSpec(2), 1, 1, CoordConfig{}, with(dieOnce(0, 3)))
				if err == nil || !strings.Contains(err.Error(), "disconnected at window") {
					t.Fatalf("coordinator error = %v, want mid-window disconnect", err)
				}
			})
			t.Run("no-deadlock-symmetric-exchange", func(t *testing.T) { testSymmetricExchange(t, mode.force) })
			// (A quarter of the governed test's run: see there why it crawls.)
			t.Run("no-deadlock-shrunken-mesh", func(t *testing.T) {
				testShrunkenMesh(t, with(&chaos{tune: shrink}), 10*sim.Microsecond)
			})
		})
	}
}

// meshPair is a loopback connection with a polling reader at one end and a
// bare socket to script at the other.
func meshPair(t testing.TB, force pollForce) (*peerConn, net.Conn) {
	t.Helper()
	l := mustListen(t)
	defer l.Close()
	far, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	near, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { near.Close(); far.Close() })
	pc := newPeerConn(near, 0)
	pc.trust()
	pc.rd.gov = &pollGovernor{force: force}
	return pc, far
}

// TestPolledReadEquivalence: however a mesh read waits, it returns what
// conn.Read returns — the same bytes from a stream cut at any boundary, EOF
// at the end of it, the closed-connection error after a local Close (what
// faultCut does: the window loop turns it into the same STALL), and the
// deadline's timeout from a neighbour that stays silent.
func TestPolledReadEquivalence(t *testing.T) {
	stream := append(frame(t, tXchg, []byte("the first of two frames"), false), frame(t, tXchg, []byte("and the second"), false)...)
	type result struct {
		got []byte
		err error
	}
	for _, mode := range pollModes {
		t.Run(mode.name, func(t *testing.T) {
			for cut := 1; cut < len(stream); cut++ {
				pc, far := meshPair(t, mode.force)
				// The read is under way, or about to be, when its bytes are
				// written: over the cuts it finds them waiting, catches them
				// polling, and parks for them.
				read := func(n int) <-chan result {
					ch := make(chan result, 1)
					go func() {
						b := make([]byte, n)
						k, err := io.ReadFull(&pc.rd, b)
						ch <- result{b[:k], err}
					}()
					return ch
				}
				for _, part := range [][]byte{stream[:cut], stream[cut:]} {
					ch := read(len(part))
					if _, err := far.Write(part); err != nil {
						t.Fatal(err)
					}
					if r := <-ch; r.err != nil || string(r.got) != string(part) {
						t.Fatalf("cut at %d of %d: read %q, %v; want %q", cut, len(stream), r.got, r.err, part)
					}
				}
				ch := read(1)
				far.Close()
				if r := <-ch; r.err != io.EOF {
					t.Fatalf("cut at %d: read past the end of the stream: %q, %v; want EOF", cut, r.got, r.err)
				}
				pc.conn.Close()
			}
			t.Run("closed", func(t *testing.T) {
				pc, _ := meshPair(t, mode.force)
				pc.conn.Close()
				if _, _, err := pc.fr.read(); !errors.Is(err, net.ErrClosed) {
					t.Fatalf("read on a closed link: %v, want net.ErrClosed", err)
				}
			})
			t.Run("silent", func(t *testing.T) {
				pc, _ := meshPair(t, mode.force)
				pc.io = 50 * time.Millisecond
				_, _, err := pc.read()
				var ne net.Error
				if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
					t.Fatalf("read from a silent neighbour: %v, want the deadline's timeout", err)
				}
			})
		})
	}
}

// TestCutLinkStalls: a mesh link closed under a polling reader ends the
// session in the STALL a parked reader produces, and the run in the same
// deterministic error.
func TestCutLinkStalls(t *testing.T) {
	for _, mode := range pollModes {
		t.Run(mode.name, func(t *testing.T) {
			cut := &chaos{poll: mode.force, at: func(peer, window int, ph phase) fault {
				if peer == 1 && ph == phaseLive && window == 20 {
					return faultCut
				}
				return faultNone
			}}
			_, err := serveChaos(t, smallSpec(2), 2, 2, CoordConfig{}, cut)
			if err == nil || !strings.Contains(err.Error(), "lost its mesh link") {
				t.Fatalf("coordinator error = %v, want a lost mesh link", err)
			}
		})
	}
}

// TestSameHost: the no-DEFLATE rule reads one property off a connection.
func TestSameHost(t *testing.T) {
	pc, _ := meshPair(t, pollGoverned)
	if pc.far {
		t.Fatalf("a loopback connection (%v - %v) counts as another host", pc.conn.LocalAddr(), pc.conn.RemoteAddr())
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if sameHost(a) {
		t.Fatal("a connection without IP addresses counts as same-host")
	}
	if sameHost(addrConn{a, &net.TCPAddr{IP: net.IPv4(10, 0, 0, 1), Port: 1}, &net.TCPAddr{IP: net.IPv4(10, 0, 0, 2), Port: 1}}) {
		t.Fatal("two different IPs count as one host")
	}
	if !sameHost(addrConn{a, &net.TCPAddr{IP: net.IPv4(10, 0, 0, 1), Port: 1}, &net.TCPAddr{IP: net.ParseIP("::ffff:10.0.0.1"), Port: 2}}) {
		t.Fatal("one IP in two spellings counts as two hosts")
	}

	// A far link deflates its window frames as before, a near one does not.
	body := make([]byte, 0, 4<<10)
	for i := 0; len(body) < 4<<10; i++ {
		body = appendEntry(body, mailEntry{dst: i % 4, at: 1_000_000, lane: int32(i % 96), kind: 1, pay: []byte{0, 0x80, 4}})
	}
	for _, far := range []bool{false, true} {
		pc := &peerConn{far: far}
		if err := pc.put(tXchg, body, pc.far); err != nil {
			t.Fatal(err)
		}
		if deflated := pc.wire < pc.raw; deflated != far {
			t.Fatalf("far=%v: %d raw bytes went out as %d", far, pc.raw, pc.wire)
		}
	}
}

type addrConn struct {
	net.Conn
	local, remote net.Addr
}

func (c addrConn) LocalAddr() net.Addr  { return c.local }
func (c addrConn) RemoteAddr() net.Addr { return c.remote }

// BenchmarkMeshExchange is the window loop's network rung by itself: two
// goroutines each write one XCHG frame to the other over loopback TCP and
// then read the other's, window after window, with the read parked in the
// netpoller or polling first, and the write offered to the socket inline or
// — what every frame above meshInline used to cost — handed to a goroutine
// and joined. A window starts with meshBenchStep of arithmetic in place of
// its simulation (ns/op includes it): between empty windows a waker finds
// the sleeper still spinning in the scheduler, and parking looks as cheap
// as polling.
// The numbers are a property of the host (peer.go's package comment quotes
// the reference VM's), so nothing gates on them.
func BenchmarkMeshExchange(b *testing.B) {
	const meshBenchStep = 10 * time.Microsecond // about a K=4 window on the reference VM
	goWrite := func(l *meshLink) error {
		l.inflight = true
		go func() {
			_, err := l.pc.conn.Write(l.pc.out)
			l.sent <- err
		}()
		return nil
	}
	for _, size := range []int{200, 2 << 10} {
		for _, read := range pollModes[1:] {
			for _, write := range []struct {
				name string
				send func(*meshLink) error
			}{{"inline", (*meshLink).send}, {"goroutine", goWrite}} {
				b.Run(fmt.Sprintf("%dB/%s/write-%s", size, read.name, write.name), func(b *testing.B) {
					l := mustListen(b)
					defer l.Close()
					conn, err := net.Dial("tcp", l.Addr().String())
					if err != nil {
						b.Fatal(err)
					}
					accepted, err := l.Accept()
					if err != nil {
						b.Fatal(err)
					}
					body := make([]byte, size)
					var links [2]*meshLink
					for i, c := range []net.Conn{conn, accepted} {
						pc := newPeerConn(c, 0)
						pc.trust()
						pc.rd.gov = &pollGovernor{force: read.force}
						links[i] = &meshLink{id: 1 - i, pc: pc, sent: make(chan error, 1)}
						defer c.Close()
					}
					// One window's network half, as session.windows does it: write
					// the frame, read the neighbour's, join the writer.
					exchange := func(l *meshLink) error {
						for t0 := time.Now(); time.Since(t0) < meshBenchStep; {
						}
						if err := l.pc.put(tXchg, body, l.pc.far); err != nil {
							return err
						}
						if err := write.send(l); err != nil {
							return err
						}
						if _, _, err := l.pc.fr.read(); err != nil {
							return err
						}
						return l.join()
					}
					echo := make(chan error, 1)
					go func() {
						for {
							if err := exchange(links[1]); err != nil {
								echo <- err
								return
							}
						}
					}()
					b.ReportAllocs()
					for b.Loop() {
						if err := exchange(links[0]); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					conn.Close()
					if err := <-echo; err != io.EOF && !errors.Is(err, net.ErrClosed) {
						var ne *net.OpError
						if !errors.As(err, &ne) { // a reset, when the close overtakes the last frame
							b.Fatalf("echo side: %v", err)
						}
					}
				})
			}
		}
	}
}

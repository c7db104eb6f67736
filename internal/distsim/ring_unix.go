//go:build unix

package distsim

import (
	"io"
	"net"
	"os"
	"runtime"
	"syscall"
	"time"
)

// ringOpenFlags: never follow a link, never block opening something that
// is not a file.
const ringOpenFlags = syscall.O_NOFOLLOW | syscall.O_NONBLOCK

func mapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

func unmapFile(mem []byte) { syscall.Munmap(mem) }

const (
	// ringLooks is how many times one non-blocking read looks at an empty
	// ring, yielding in between: about what one read(2) of an empty socket
	// costs, so that the poll governor's bounds, counted in attempts, span
	// the time they were measured at (peer.go).
	ringLooks = 4
	// ringNap is how long a writer waiting for room sleeps between looks
	// once pollTries yields have not made any.
	ringNap = 50 * time.Microsecond
)

// shmRing is a mesh link's sock when the link runs over a mapped ring:
// frames go through the ring, and the connection's socket carries the
// doorbell. Every call goes through the connection (syscall.RawConn), so
// it takes the connection's locks and obeys its deadline and its Close
// like conn.Read and conn.Write; the calls' arguments and results live
// here, beside the two callbacks built once, as in tcpSock.
type shmRing struct {
	conn   net.Conn
	rc     syscall.RawConn
	tx, rx ringHalf

	rbuf    []byte
	rn      int
	rerr    error
	park    bool
	blocked bool
	bells   [64]byte
	tryRead func(fd uintptr) bool

	wbuf     []byte
	wn       int
	werr     error
	tryWrite func(fd uintptr) bool
}

var ringBell = []byte{1}

// newShmRing binds a mapped ring to its link's socket, from the dialer's
// side or the acceptor's; nil when conn is not a socket.
func newShmRing(mem []byte, dialer bool, conn net.Conn) sock {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	r := &shmRing{conn: conn, rc: rc}
	if r.tx, r.rx = ringHalves(mem); dialer {
		r.tx, r.rx = r.rx, r.tx
	}
	r.tryRead = func(fd uintptr) bool {
		for look := 1; ; look++ {
			if r.rn, r.rerr = r.rx.take(r.rbuf); r.rn > 0 || r.rerr != nil || len(r.rbuf) == 0 {
				return true
			}
			if r.park || look == ringLooks {
				break
			}
			runtime.Gosched()
		}
		r.blocked = true
		if !r.park {
			return true
		}
		for {
			// Mark, look again, and only then sleep on the doorbell: a
			// writer that published before it could see the mark is
			// caught by the look, one after it rings.
			r.rx.parked.Store(1)
			if r.rn, r.rerr = r.rx.take(r.rbuf); r.rn > 0 || r.rerr != nil {
				return true
			}
			n, err := syscall.Read(int(fd), r.bells[:])
			switch {
			case err == syscall.EINTR:
			case err == syscall.EAGAIN:
				return false // the netpoller wakes us at the next bell, EOF, the deadline or a Close
			case err != nil:
				r.rerr = sockError(conn, "read", err)
				return true
			case n == 0:
				// Every bell before the end was answered by a look, so
				// the ring holds nothing the neighbour wrote.
				r.rerr = io.EOF
				return true
			}
		}
	}
	r.tryWrite = func(fd uintptr) bool {
		if r.wn, r.werr = r.tx.put(r.wbuf); r.wn == 0 || r.werr != nil || !r.tx.parked.CompareAndSwap(1, 0) {
			return true
		}
		for {
			_, err := syscall.Write(int(fd), ringBell)
			switch {
			case err == syscall.EINTR:
				continue
			case err != nil && err != syscall.EAGAIN: // a full socket holds a bell already
				r.werr = sockError(conn, "write", err)
			}
			return true
		}
	}
	return r
}

func (r *shmRing) read(p []byte, park bool) (int, bool, error) {
	r.rbuf, r.park, r.blocked = p, park, false
	err := r.rc.Read(r.tryRead)
	r.rbuf = nil
	if park {
		r.rx.parked.Store(0)
	}
	switch {
	case err != nil: // closed, or past the deadline
		return 0, r.blocked, err
	case r.rerr != nil:
		return 0, r.blocked, r.rerr
	}
	return r.rn, r.blocked, nil
}

func (r *shmRing) write(p []byte) (int, error) {
	r.wbuf = p
	err := r.rc.Write(r.tryWrite)
	r.wbuf = nil
	if err != nil {
		return 0, err
	}
	return r.wn, r.werr
}

// writeAll is the rare path of a frame larger than the room in the ring:
// it looks for room again, yielding in between, and after pollTries looks
// that found none sleeps ringNap between them — until the frame is in, the
// connection is closed, or its deadline passes.
func (r *shmRing) writeAll(p []byte) error {
	for idle := 0; len(p) > 0; {
		n, err := r.write(p)
		if err != nil {
			return err
		}
		switch p = p[n:]; {
		case n > 0:
			idle = 0
		case idle < pollTries:
			idle++
			runtime.Gosched()
		default:
			time.Sleep(ringNap)
		}
	}
	return nil
}

//go:build unix

package distsim

import (
	"io"
	"net"
	"os"
	"syscall"
)

// sock reaches a connection's socket beside the net package: single
// read(2) and write(2) calls that report "would block" instead of parking
// the goroutine. Through syscall.RawConn they take the connection's locks
// and obey its deadline and its Close like conn.Read and conn.Write. One
// goroutine reads and one writes at a time, as with a frameReader: the
// calls' arguments and results live here, beside the two callbacks built
// once, so that a call allocates nothing.
type sock struct {
	conn net.Conn
	rc   syscall.RawConn

	rbuf    []byte
	rn      int
	rerr    error
	park    bool
	blocked bool
	tryRead func(fd uintptr) bool

	wbuf     []byte
	wn       int
	werr     error
	tryWrite func(fd uintptr) bool
}

// newSock returns nil for a connection that is not a socket.
func newSock(conn net.Conn) *sock {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	s := &sock{conn: conn, rc: rc}
	s.tryRead = func(fd uintptr) bool {
		for {
			if s.rn, s.rerr = syscall.Read(int(fd), s.rbuf); s.rerr != syscall.EINTR {
				break
			}
		}
		if s.rerr != syscall.EAGAIN {
			return true
		}
		s.blocked = true
		return !s.park
	}
	s.tryWrite = func(fd uintptr) bool {
		for {
			if s.wn, s.werr = syscall.Write(int(fd), s.wbuf); s.werr != syscall.EINTR {
				break
			}
		}
		return true
	}
	return s
}

func (s *sock) opError(op string, err error) error {
	return &net.OpError{Op: op, Net: "tcp", Source: s.conn.LocalAddr(), Addr: s.conn.RemoteAddr(), Err: os.NewSyscallError(op, err)}
}

// read reads into p. An empty socket makes it return at once, or with
// park set wait in the netpoller as conn.Read would; blocked reports that
// the socket was found empty.
func (s *sock) read(p []byte, park bool) (n int, blocked bool, err error) {
	s.rbuf, s.park, s.blocked = p, park, false
	err = s.rc.Read(s.tryRead)
	s.rbuf = nil
	switch {
	case err != nil: // closed, or past the deadline
		return 0, s.blocked, err
	case s.rerr == syscall.EAGAIN: // and park is unset
		return 0, true, nil
	case s.rerr != nil:
		return 0, s.blocked, s.opError("read", s.rerr)
	case s.rn == 0 && len(p) > 0:
		return 0, s.blocked, io.EOF
	}
	return s.rn, s.blocked, nil
}

// write offers p to the socket in one write(2) and returns how much of it
// the socket took, which is nothing when it is full.
func (s *sock) write(p []byte) (int, error) {
	s.wbuf = p
	err := s.rc.Write(s.tryWrite)
	s.wbuf = nil
	switch {
	case err != nil:
		return 0, err
	case s.werr == syscall.EAGAIN:
		return 0, nil
	case s.werr != nil:
		return 0, s.opError("write", s.werr)
	}
	return s.wn, nil
}

//go:build !unix

package distsim

import (
	"errors"
	"net"
)

// sock is empty here: this platform's sockets are reached through the net
// package only, newSock returns nil, and every caller treats a nil sock as
// "read and write the connection as before".
type sock struct{}

func newSock(net.Conn) *sock { return nil }

func (*sock) read([]byte, bool) (int, bool, error) { return 0, false, errors.ErrUnsupported }

func (*sock) write([]byte) (int, error) { return 0, errors.ErrUnsupported }

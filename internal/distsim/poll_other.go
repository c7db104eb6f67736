//go:build !unix

package distsim

import "net"

// newSock returns nil here: this platform's sockets are reached through
// the net package only, and every caller treats a nil sock as "read and
// write the connection as before".
func newSock(net.Conn) sock { return nil }

//go:build !unix

package distsim

import (
	"errors"
	"net"
	"os"
)

// Without poll_unix.go's socket access there is no doorbell, so no ring:
// every mesh link stays on its socket.
const ringOpenFlags = 0

func mapFile(*os.File, int) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapFile([]byte) {}

func newShmRing([]byte, bool, net.Conn) sock { return nil }

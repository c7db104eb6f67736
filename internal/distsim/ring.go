// Shared-memory mesh links. Two peers on one host exchange their frames
// through one small file-backed mapping instead of the loopback socket: two
// single-producer/single-consumer byte rings, one per direction, each with
// its tail (written by the producer), head (written by the consumer) and
// parked mark on cache lines of their own. The socket stays open beside
// it, carrying no frame: it is the doorbell of a reader that sleeps, and
// the failure detector, so a dead or cut neighbour ends as EOF or a closed
// connection exactly as on a socket link, under the socket's deadlines.
//
// The accepting peer creates the file and offers its name in its mesh
// HELLO; the dialer maps it after checking that the name is a bare ring
// name, the file a regular one of the geometry its header declares, and
// the header this link's (session token, both ids, model hash). It answers
// with a RING frame saying whether it took the ring, and the acceptor
// unlinks the file before either runs a window. An offer that cannot be
// used (no such file, not permitted, not mappable) leaves the link on its
// socket; one that is malformed is refused like a bad HELLO.
//
// Who waits how is parsim's parker protocol (exec.go), across
// processes: a reader that found its ring empty marks itself parked, looks
// again, and only then sleeps reading the socket; a writer that publishes
// and finds the mark clears it and writes one byte to the socket. Both
// sides order their store before their load (sequentially consistent
// atomics), so either the reader sees the bytes or the writer sees the
// mark. Why a ring and not a unix socket: see peer.go's package comment.
package distsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"unsafe"
)

const (
	ringPrefix = "stardust-mesh-" // a ring file is ringPrefix + pid + "-" + 16 hex digits
	ringMagic  = "sdring01"
	ringLine   = 128          // spacing of the shared words: a cache line and the one prefetched with it
	ringData   = 8 * ringLine // the header, six words, a spare line; the rings follow
	ringSize   = 64 << 10     // bytes per direction
	ringMin    = 256          // the geometry a dialer accepts: a power of two ...
	ringMax    = 1 << 20      // ... in [ringMin, ringMax]
)

// ringHeader is what a ring file says about itself in its first line:
// the link it was made for and its capacity per direction.
//
//	header := "sdring01" | u64le token | u64le hash | u32le acceptor |
//	          u32le dialer | u32le size
type ringHeader struct {
	token, hash      uint64
	acceptor, dialer int
	size             int
}

func (h ringHeader) put(b []byte) {
	copy(b, ringMagic)
	binary.LittleEndian.PutUint64(b[8:], h.token)
	binary.LittleEndian.PutUint64(b[16:], h.hash)
	binary.LittleEndian.PutUint32(b[24:], uint32(h.acceptor))
	binary.LittleEndian.PutUint32(b[28:], uint32(h.dialer))
	binary.LittleEndian.PutUint32(b[32:], uint32(h.size))
}

func parseRingHeader(b []byte) (ringHeader, error) {
	if len(b) < ringData || string(b[:len(ringMagic)]) != ringMagic {
		return ringHeader{}, ringRefusal("not a ring file")
	}
	h := ringHeader{
		token:    binary.LittleEndian.Uint64(b[8:]),
		hash:     binary.LittleEndian.Uint64(b[16:]),
		acceptor: int(binary.LittleEndian.Uint32(b[24:])),
		dialer:   int(binary.LittleEndian.Uint32(b[28:])),
		size:     int(binary.LittleEndian.Uint32(b[32:])),
	}
	if h.size < ringMin || h.size > ringMax || bits.OnesCount(uint(h.size)) != 1 {
		return h, ringRefusal(fmt.Sprintf("ring of %d bytes", h.size))
	}
	for w := 1; w <= 6; w++ {
		if binary.LittleEndian.Uint64(b[w*ringLine:]) != 0 {
			return h, ringRefusal("a ring already in use")
		}
	}
	return h, nil
}

// ringRefusal is an offer that is malformed, not merely unusable: it
// fails the handshake with an ERROR frame.
type ringRefusal string

func (e ringRefusal) Error() string { return "distsim: ring offer refused: " + string(e) }

// ringDir is where ring files live: memory-backed /dev/shm where the host
// has it.
func ringDir() string {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		return "/dev/shm"
	}
	return os.TempDir()
}

// isRingName reports whether name is a bare name of the ring files'
// pattern: nothing else is ever opened.
func isRingName(name string) bool {
	rest, ok := strings.CutPrefix(name, ringPrefix)
	if !ok {
		return false
	}
	i := 0
	for i < len(rest) && i < 10 && rest[i] >= '0' && rest[i] <= '9' {
		i++
	}
	if i == 0 || len(rest) != i+1+16 || rest[i] != '-' {
		return false
	}
	for _, c := range rest[i+1:] {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// createRing makes and maps a fresh ring file in dir for the link h
// describes. The caller removes the file once the dialer has answered.
func createRing(dir string, h ringHeader) (mem []byte, name string, err error) {
	name = fmt.Sprintf("%s%d-%016x", ringPrefix, os.Getpid(), rand.Uint64())
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL|ringOpenFlags, 0o600)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	// Written, not truncated, to its size: a full file system fails here,
	// not later as a fault on a page of the mapping.
	size, zero := ringData+2*h.size, make([]byte, 4<<10)
	for off := 0; off < size && err == nil; off += len(zero) {
		_, err = f.WriteAt(zero[:min(len(zero), size-off)], int64(off))
	}
	if err == nil {
		mem, err = mapFile(f, size)
	}
	if err != nil {
		os.Remove(path)
		return nil, "", err
	}
	h.put(mem)
	return mem, name, nil
}

// openRing maps the ring a neighbour offered under name, which must be
// the one made for the link want describes (its size is the file's to
// declare). A ringRefusal says the offer is malformed; any other error
// that it cannot be used here, and the link stays on its socket.
func openRing(dir, name string, want ringHeader) ([]byte, error) {
	if !isRingName(name) {
		return nil, ringRefusal(fmt.Sprintf("%q is not a ring name", name))
	}
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_RDWR|ringOpenFlags, 0)
	if err != nil {
		if fi, lerr := os.Lstat(path); lerr == nil && fi.Mode()&os.ModeSymlink != 0 {
			return nil, ringRefusal(name + " is a symbolic link")
		}
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !fi.Mode().IsRegular() {
		return nil, ringRefusal(name + " is not a regular file")
	}
	hb := make([]byte, ringData)
	if _, err := f.ReadAt(hb, 0); err != nil {
		return nil, ringRefusal(fmt.Sprintf("%s: %d-byte file", name, fi.Size()))
	}
	got, err := parseRingHeader(hb)
	if err != nil {
		return nil, err
	}
	switch size := int64(ringData + 2*got.size); {
	case fi.Size() != size:
		return nil, ringRefusal(fmt.Sprintf("%s holds %d bytes, its header declares %d", name, fi.Size(), size))
	case got.token != want.token:
		return nil, ringRefusal("another session's token")
	case got.hash != want.hash:
		return nil, ringRefusal("another model's hash")
	case got.acceptor != want.acceptor || got.dialer != want.dialer:
		return nil, ringRefusal(fmt.Sprintf("made for peers %d and %d, not %d and %d", got.acceptor, got.dialer, want.acceptor, want.dialer))
	}
	return mapFile(f, ringData+2*got.size)
}

// ringHalf is one direction of a mapped ring. tail and head count the bytes
// ever produced and consumed; only the producer stores tail and only the
// consumer head, and neither trusts the other's not to be garbage.
type ringHalf struct {
	tail, head, parked *atomic.Uint64
	data               []byte
}

var errRingCorrupt = errors.New("distsim: shared-memory ring corrupt")

// ringHalves returns a mapping's two directions: acceptor to dialer, and
// dialer to acceptor.
func ringHalves(mem []byte) (down, up ringHalf) {
	size := (len(mem) - ringData) / 2
	word := func(line int) *atomic.Uint64 { return (*atomic.Uint64)(unsafe.Pointer(&mem[line*ringLine])) }
	down = ringHalf{word(1), word(2), word(3), mem[ringData : ringData+size : ringData+size]}
	up = ringHalf{word(4), word(5), word(6), mem[ringData+size:]}
	return down, up
}

// put copies as much of p as there is room for and publishes it.
func (h *ringHalf) put(p []byte) (int, error) {
	tail, head := h.tail.Load(), h.head.Load()
	used := tail - head
	if used > uint64(len(h.data)) {
		return 0, errRingCorrupt
	}
	n := min(uint64(len(h.data))-used, uint64(len(p)))
	if n == 0 {
		return 0, nil
	}
	k := copy(h.data[tail%uint64(len(h.data)):], p[:n])
	copy(h.data, p[k:n])
	h.tail.Store(tail + n)
	return int(n), nil
}

// take copies out as much as has been published and fits p.
func (h *ringHalf) take(p []byte) (int, error) {
	head, tail := h.head.Load(), h.tail.Load()
	avail := tail - head
	if avail > uint64(len(h.data)) {
		return 0, errRingCorrupt
	}
	n := min(avail, uint64(len(p)))
	if n == 0 {
		return 0, nil
	}
	k := copy(p[:n], h.data[head%uint64(len(h.data)):])
	copy(p[k:n], h.data)
	h.head.Store(head + n)
	return int(n), nil
}

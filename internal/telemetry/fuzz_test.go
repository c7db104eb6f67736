package telemetry_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"runtime"
	"testing"

	"stardust/internal/distsim"
	"stardust/internal/sim"
	"stardust/internal/telemetry"
)

// goldenStream is the stream `stardust -seed 7 trace/record k=4`
// writes, the one the golden ledger's stream row pins by SHA-256.
func goldenStream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	spec := distsim.Spec{K: 4, Seed: 7, Shards: 1, Dur: 200 * sim.Microsecond, Load: 0.5, CellBytes: 512, Hotspot: 1, Telem: 20 * sim.Microsecond}
	if _, err := distsim.Record(spec, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func strecFrame(b []byte, typ byte, body []byte) []byte {
	b = append(b, typ)
	b = binary.AppendUvarint(b, uint64(len(body)))
	b = append(b, body...)
	crc := crc32.Update(crc32.ChecksumIEEE([]byte{typ}), crc32.IEEETable, body)
	return binary.LittleEndian.AppendUint32(b, crc)
}

// Two streams that claim much and carry nothing: a header for four million
// link directions and sinks followed by a window record of two bytes, and
// a frame prefix announcing the largest body there is.
func hugeDims() []byte {
	s := strecFrame([]byte(telemetry.Magic), 1, []byte(`{"format":1,"dirs":4194304,"fas":4194304,"scrape_ps":1}`))
	return strecFrame(s, 2, []byte{0, 0})
}

func hugeBody() []byte {
	s := strecFrame([]byte(telemetry.Magic), 1, []byte(`{"format":1,"dirs":2,"fas":1,"scrape_ps":1}`))
	return binary.AppendUvarint(append(s, 2), 1<<26)
}

// readAll drains a stream and returns the records decoded and the error
// that ended it (io.EOF for a clean end).
func readAll(stream []byte) (records int, err error) {
	sr := telemetry.NewReader(bytes.NewReader(stream))
	for {
		if _, _, err := sr.Next(); err != nil {
			return records, err
		}
		records++
	}
}

// TestReaderAllocatesWhatArrives: the Reader used to build its window
// arrays from the header's word (about 380 MiB for hugeDims) and a frame
// body from the length prefix's (64 MiB for hugeBody).
func TestReaderAllocatesWhatArrives(t *testing.T) {
	for name, stream := range map[string][]byte{"huge-dims": hugeDims(), "huge-body": hugeBody()} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		n, err := readAll(stream)
		runtime.ReadMemStats(&after)
		if err == nil || err == io.EOF || n != 0 {
			t.Errorf("%s: %d records and %v out of %d hostile bytes", name, n, err, len(stream))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: %d bytes of stream made the reader allocate %d", name, len(stream), got)
		}
	}
}

func FuzzReadStream(f *testing.F) {
	golden := goldenStream(f)
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(golden[:len(telemetry.Magic)+3])
	flipped := append([]byte(nil), golden...)
	flipped[len(flipped)-1] ^= 0x40 // the last record's CRC
	f.Add(flipped)
	f.Add(hugeDims())
	f.Add(hugeBody())
	f.Fuzz(func(t *testing.T, data []byte) {
		// Errors are fine; panics, hangs and memory out of proportion to the
		// input are not. A record is at least six bytes of frame.
		if n, _ := readAll(data); n > len(data)/6 {
			t.Fatalf("%d records out of %d bytes", n, len(data))
		}
	})
}

package distsim

import (
	"hash/fnv"
	"testing"

	"stardust/internal/fabric"
	"stardust/internal/sim"
)

// Pins the digest encoding: foldDigest over gather() must equal the
// scenarios-style fold over ReadLinkCounters.
func TestDigestFoldMatchesLinkCounters(t *testing.T) {
	spec := healSpec(3)
	m, err := NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.RunLocal()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	w := func(v uint64) {
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for fa := range m.Net.NumFA() {
		cells, bytes := m.Net.DeliveredTo(fa)
		w(cells)
		w(bytes)
	}
	var lc [2]fabric.LinkCounters
	for i := 0; i < m.Net.NumLinks(); i++ {
		m.Net.ReadLinkCounters(i, &lc)
		for d := 0; d < 2; d++ {
			w(lc[d].FwdBytes)
			w(lc[d].FwdCells)
			w(lc[d].Drops)
		}
	}
	if h.Sum64() != out.Digest {
		t.Fatalf("digest fold drifted: scenarios-style %016x vs foldDigest %016x", h.Sum64(), out.Digest)
	}
	_ = sim.Microsecond
}

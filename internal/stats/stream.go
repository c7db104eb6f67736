package stats

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
)

// Stream returns the random stream a run of the given seed draws under a
// name and ids (a device, a direction, a tag): a PCG keyed by the seed and
// an FNV-1a hash of the name, each id hashed as 8 little-endian bytes.
// Every random stream of a run is one, so each is a pure function of
// (seed, name): it does not move when another stream is added, removed or
// drawn from more or less, and the order in which a run makes its streams
// is no part of its determinism.
func Stream(seed int64, name string, ids ...int) *rand.PCG {
	h := fnv.New64a()
	h.Write([]byte(name))
	for _, id := range ids {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(id)))
	}
	return rand.NewPCG(uint64(seed), h.Sum64())
}

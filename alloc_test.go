package stardust_test

import "testing"

// 0 allocs/op on the hot paths is an exit criterion of the roadmap and
// does not depend on the host, so it is a test and not a benchmark gate.
// These two run the loops of BenchmarkPacketPath and
// BenchmarkTransportPathSharded; the fabric cell path (Clos, Space
// Shuffle, sharded) is fabric.TestFabricAllocFree, the telemetry export
// telemetry.TestWriteWindowDoesNotAllocate. A batch is hundreds of
// packets, so a path that allocated per packet could not hide in
// AllocsPerRun's truncated mean.

func TestPacketPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the packet pool allocates under the race detector")
	}
	pp := newPacketPath()
	pp.send(2048) // grow the queue rings and the event store once
	if avg := testing.AllocsPerRun(100, func() { pp.send(512) }); avg != 0 {
		t.Fatalf("queue+pipe hop allocates: %.0f allocs per 512 packets", avg)
	}
	if want := uint64(2048 + 101*512); pp.sink.Packets != want {
		t.Fatalf("delivered %d of %d packets", pp.sink.Packets, want)
	}
}

func TestTransportPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the packet pool allocates under the race detector")
	}
	tp := newTransportPath(t)
	want := tp.warm(t)
	const batch = 512
	send := func() {
		want += batch
		tp.send(batch, want)
	}
	send()
	// A two-shard engine allocates its call-scoped worker pool once per
	// Run call, and a send is two calls (the paced run, then the drain);
	// that is not the packet path's.
	if avg := testing.AllocsPerRun(100, send); avg > 2 {
		t.Fatalf("transport path allocates: %.0f allocs per %d packets", avg, batch)
	}
	if got := tp.delivered(); got != want || tp.net.TotalDrops() != 0 {
		t.Fatalf("delivered %d of %d packets, %d drops", got, want, tp.net.TotalDrops())
	}
}

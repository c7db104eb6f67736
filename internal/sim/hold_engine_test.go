package sim_test

import (
	"testing"

	"stardust/internal/parsim"
	"stardust/internal/sim"
)

// counted is a delivery a mailbox may count instead of scheduling
// (sim.Arrival): it takes effect on the spot when count is set.
type counted struct{ count bool }

func (counted) Act(uint64)                            {}
func (c counted) Arrive(sim.Time, int32, uint64) bool { return c.count }

// A run drained to quiet ends at the window boundary it would have ended
// at with a real lane event in place of the held delivery — inside a
// window, on a boundary, just before one — whether the delivery is held
// on its sender's shard or counted by the receiver's mailbox, and it
// executes one event fewer.
func TestHeldDeliveryEndsRunUntilQuiet(t *testing.T) {
	const look = sim.Microsecond
	for _, at := range []sim.Time{5*look + look/2, 5 * look, 5*look - 1, 40 * look} {
		for _, mail := range []bool{false, true} {
			run := func(hold bool) (end sim.Time, processed, dispatched uint64) {
				eng := parsim.New(parsim.Config{Shards: 2, Lookahead: look})
				src := eng.Shard(0)
				src.Sim().AtLaneFunc(look/3, 1, func() {
					switch {
					case mail:
						src.To(1).AtLane(at, 7, counted{count: hold}, 0)
					case hold:
						src.Sim().Hold(at, 7)
					default:
						src.Sim().AtLane(at, 7, counted{}, 0)
					}
				})
				end = eng.RunUntilQuiet(sim.Millisecond)
				return end, eng.Processed(), eng.Dispatched()
			}
			wantEnd, wantProcessed, wantDispatched := run(false)
			end, processed, dispatched := run(true)
			if end != wantEnd || processed != wantProcessed || dispatched != wantDispatched-1 {
				t.Errorf("delivery at %d (mail %v): held run ends at %d, processed %d, dispatched %d; event run %d, %d, %d",
					at, mail, end, processed, dispatched, wantEnd, wantProcessed, wantDispatched)
			}
		}
	}
}

//go:build race

package parsim

// raceEnabled reports that the race detector is instrumenting this build:
// every multi-shard window then fans out, so the detector sees the
// concurrent path whether or not each shard has a processor.
const raceEnabled = true

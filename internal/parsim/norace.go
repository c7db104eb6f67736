//go:build !race

package parsim

const raceEnabled = false

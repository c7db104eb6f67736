//go:build !race

package stardust_test

const raceEnabled = false

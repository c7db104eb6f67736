//go:build unix

package main

import "syscall"

// raiseNoFile lifts the open-file soft limit to the hard limit: 10⁵
// concurrent connections need 10⁵+ descriptors.
func raiseNoFile() {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err == nil && lim.Cur < lim.Max {
		lim.Cur = lim.Max
		syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim)
	}
}

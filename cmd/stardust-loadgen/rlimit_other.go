//go:build !unix

package main

// raiseNoFile does nothing where open files are not capped by an rlimit.
func raiseNoFile() {}

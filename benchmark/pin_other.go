//go:build !linux

package main

import "errors"

// pinToOneCPU is Linux-only, like the /proc readers: elsewhere the
// benchmark compiles, and a run says it is not pinned.
func pinToOneCPU() (int, error) {
	return 0, errors.New("CPU affinity is only implemented on Linux")
}

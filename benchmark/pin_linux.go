package main

import (
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is the kernel's affinity bit set; 1024 CPUs is glibc's size too.
type cpuMask [16]uint64

// pinToOneCPU confines every thread of this process to the
// highest-numbered CPU it may run on; the threads and processes it starts
// afterwards inherit that. The load generator and the server then take
// turns on one core, as a closed loop of synchronous callers does anyway.
//
// Why: spread over a guest's vCPUs, a request and its reply each cross
// CPUs, which is an inter-processor interrupt and, when the other vCPU
// has halted, a wake-up by the host. The round trip then times the
// host's scheduler: minutes apart, identical runs of subscribe-small
// read 58k, 48k and 40k updates/s unpinned and 81k, 81k and 85k on one
// CPU. Which CPU made no measurable difference.
func pinToOneCPU() (cpu int, err error) {
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu = -1
	for i, word := range allowed {
		if word != 0 {
			cpu = 64*i + bits.Len64(word) - 1
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	// Affinity is per thread and a new thread inherits its creator's. A
	// thread born during the first pass, of one not yet moved, is caught
	// by the second; after that every creator is on the CPU.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread ended meanwhile
				return 0, fmt.Errorf("sched_setaffinity(%d, cpu %d): %w", tid, cpu, e)
			}
		}
	}
	return cpu, nil
}

package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask wide enough for 1024 CPUs.
type cpuMask [16]uint64

func setAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinToOneCPU restricts every thread of this process, and so every process
// it starts from now on, to the highest-numbered CPU it may run on, and
// returns that CPU.
//
// The generator and the daemons share one CPU on purpose. On the two-vCPU
// shared microVM the bounds were calibrated on, the same commit measured
// back to back differed by 20-40% whenever the work was spread over both
// vCPUs (their combined capacity moves with the host's other tenants, and
// every cross-CPU wake-up pays a variable VM exit), and by 1-5% on one. A
// benchmark that cannot tell a 10% regression from its own noise is of no
// use, so it measures the serial cost of a record's whole life on one CPU.
func pinToOneCPU() (int, error) {
	var allowed cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := range allowed {
		for b := 0; b < 64; b++ {
			if allowed[i]&(1<<b) != 0 {
				cpu = i*64 + b
			}
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	// New threads inherit the mask of the thread that creates them, so a
	// second pass catches any thread an unpinned one started meanwhile.
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
			if err := setAffinity(tid, &one); err != nil && err != syscall.ESRCH {
				return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
			}
		}
	}
	return cpu, nil
}

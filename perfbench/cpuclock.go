package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's timed figures are CPU time, not wall time. The
// reference machine is a virtual machine on a shared host: when the host
// is busy it takes the virtual CPUs away for milliseconds at a time
// (steal time), and every wall-clock figure of a millisecond or longer
// grows with the host's load, by 25-30% between runs of the same code.
// The guest kernel leaves steal time out of its CPU clocks, so the CPU
// time a call used is what the program cost, whatever the neighbours do.
// Per-update latency stays wall time: a call of about a microsecond is
// almost never interrupted, so its median and p99 hold steady either way.

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func readClock(id uintptr) (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("clock_gettime(%d): %w", id, e)
	}
	return time.Duration(ts.Nano()), nil
}

// checkCPUClocks reports whether the system provides both CPU clocks.
// Once it has, a failing read is a bug.
func checkCPUClocks() error {
	for _, id := range []uintptr{clockProcessCPU, clockThreadCPU} {
		if _, err := readClock(id); err != nil {
			return err
		}
	}
	return nil
}

func cpuClock(id uintptr) time.Duration {
	d, err := readClock(id)
	if err != nil {
		panic(err)
	}
	return d
}

// procCPU is the CPU time all of the process's threads have used. It
// times calls made while no other client runs: it covers the work the
// program spreads over goroutines (a checkpoint flushes its shards in
// parallel) and the garbage collection the call's allocations cause.
func procCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time the calling thread has used. It times calls
// made while other clients run (the query workload's readers), whose
// work runs on the caller's goroutine; the caller must have locked its
// goroutine to its thread (runtime.LockOSThread).
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

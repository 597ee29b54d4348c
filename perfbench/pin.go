package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// On a VM whose few vCPUs are shared with other tenants, a request that
// wakes a process on another vCPU costs an inter-processor interrupt and,
// when that vCPU is idle, a wait until the host runs it again: time that
// follows the host's load, not the program. So the load generator, every
// dcwsd and the reference server run on one CPU. Each then has GOMAXPROCS
// 1, which the Go runtime derives from the affinity mask, and a closed
// loop measures CPU work on one core, on which other load on the host
// weighs far less.

// pinnedEnv is set in the re-executed generator to the CPU it runs on.
const pinnedEnv = "PERFBENCH_CPU"

// pinAndReexec binds the calling thread to the last CPU the process may
// run on and re-executes the program there, so every thread of the new
// image, and every process it starts, inherits the one-CPU mask. It
// returns only on error, or at once when the process is already pinned.
func pinAndReexec() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	var set [16]uint64 // room for 1024 CPUs
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &set); err != nil {
		return err
	}
	n, cpu := 0, -1
	for i, w := range set {
		n += bits.OnesCount64(w)
		if w != 0 {
			cpu = 64*i + 63 - bits.LeadingZeros64(w)
		}
	}
	if cpu < 0 {
		return fmt.Errorf("empty CPU affinity mask")
	}
	var one [16]uint64
	one[cpu/64] = 1 << (cpu % 64)
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(), fmt.Sprintf("%s=cpu %d of %d", pinnedEnv, cpu, n))
	return syscall.Exec(self, os.Args, env)
}

// affinity gets or sets the calling thread's CPU mask.
func affinity(call uintptr, set *[16]uint64) error {
	_, _, e := syscall.RawSyscall(call, 0, unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set)))
	if e != 0 {
		return e
	}
	return nil
}

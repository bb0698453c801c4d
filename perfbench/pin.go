package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// On hosts with two or more CPUs, the end-to-end daemon runs put
// pktstored on serverCPU and this load generator on generatorCPU, so
// that neither preempts the other: a request's latency then holds no
// time the generator spent on the server's CPU. Left to share both
// CPUs, throughput drifted by 10-20% between runs on a two-CPU host.
const (
	serverCPU    = 0
	generatorCPU = 1
	allCPUs      = -1 // undoes a binding
)

func canPin() bool { return runtime.NumCPU() > generatorCPU }

// setAffinity binds thread tid (0 = the calling thread) to one CPU, or
// to every CPU this process started with.
func setAffinity(tid, cpu int) error {
	var mask [16]uint64
	if cpu == allCPUs {
		for c := 0; c < runtime.NumCPU(); c++ {
			mask[c/64] |= 1 << (c % 64)
		}
	} else {
		mask[cpu/64] = 1 << (cpu % 64)
	}
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
		unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if e != 0 {
		return e
	}
	return nil
}

// pinProcess binds every thread of this process to cpu (or allCPUs).
// Threads started later inherit the binding of the thread that starts
// them; the second pass catches threads started during the first.
func pinProcess(cpu int) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, cpu); err != nil && err != syscall.ESRCH {
				return err
			}
		}
	}
	return nil
}

// startOn starts cmd bound to cpu: a child inherits the binding of the
// thread that forks it. The thread returns to generatorCPU after.
func startOn(cmd *exec.Cmd, cpu int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, cpu); err != nil {
		return err
	}
	err := cmd.Start()
	if rerr := setAffinity(0, generatorCPU); err == nil {
		err = rerr
	}
	return err
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The speed of a shared host wanders: other tenants use the same cores,
// and for tens of minutes at a time the same sweep took 50–60% longer
// and a fixed loop of integer arithmetic about 30% longer. Two runs of
// one commit then differ by more than any bound a regression check could
// use.
//
// So while the timed load runs, a canary — this binary in canary mode,
// under SCHED_IDLE — times a fixed kernel of integer arithmetic over a
// 4 KiB table every canaryEvery: no deesim code, no allocation, no
// system calls. It counts the kernel's thread CPU time, so being
// preempted by the load does not count, while a slower host does. Under
// SCHED_IDLE any woken thread of the load preempts it at once; at nice
// 19 it still delayed the load's wake-ups. The median of its times says
// how fast this host ran during this run, and the time-based end-to-end
// metrics are reported at the canary's reference speed: a time is
// multiplied by canaryRef ÷ the median, a rate divided by it.

const (
	canaryEvery = 100 * time.Millisecond
	canaryIters = 1 << 20
	// canaryRef is about the canary's median on the 2-vCPU Xeon VM the
	// README's baseline was recorded on, so that there normalised values
	// read within a few percent of the raw ones. It only scales the
	// values; it never changes a ratio between two runs.
	canaryRef = 2 * time.Millisecond
)

var canarySink uint64

func canaryKernel() {
	var table [512]uint64
	x := uint64(1)
	for i := 0; i < canaryIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		table[x>>55] += x
	}
	canarySink += x + table[7]
}

// threadCPU is the calling thread's CPU time, to the nanosecond
// (getrusage's thread times move in scheduler ticks).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// canaryMain is the child side: move its thread to SCHED_IDLE, then
// time the kernel at once and every canaryEvery after, printing each
// time in nanoseconds, until standard input closes.
func canaryMain(stdin io.Reader, stdout io.Writer) error {
	runtime.LockOSThread() // the kernel, the policy and the CPU clock share one thread
	const schedIdle = 5    // SCHED_IDLE
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return fmt.Errorf("canary: set SCHED_IDLE: %w", errno)
	}
	stop := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, stdin)
		close(stop)
	}()
	w := bufio.NewWriter(stdout)
	tick := time.NewTicker(canaryEvery)
	defer tick.Stop()
	for {
		t0 := threadCPU()
		canaryKernel()
		fmt.Fprintln(w, int64(threadCPU()-t0))
		select {
		case <-stop:
			return w.Flush()
		case <-tick.C:
		}
	}
}

type canary struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   strings.Builder
}

func startCanary() (*canary, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &canary{cmd: exec.Command(self, "canary")}
	c.cmd.Stdout = &c.out
	c.cmd.Stderr = os.Stderr
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	return c, nil
}

// finish stops the canary child, waits for it, and returns its kernel
// times.
func (c *canary) finish() ([]time.Duration, error) {
	c.stdin.Close()
	if err := c.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("canary: %w", err)
	}
	var ds []time.Duration
	for _, f := range strings.Fields(c.out.String()) {
		ns, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("canary printed %q", f)
		}
		ds = append(ds, time.Duration(ns))
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("canary printed no times")
	}
	return ds, nil
}

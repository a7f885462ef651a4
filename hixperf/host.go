package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the kernel's clock-tick rate for /proc/stat (USER_HZ, 100 on
// every Linux ABI Go supports).
const userHZ = 100

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			break
		}
		kib, err := strconv.ParseFloat(fs[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kib / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// stealTicks reads the machine-wide CPU steal counter from /proc/stat:
// time the hypervisor ran other guests while this one wanted to run. It
// returns -1 where the counter is unavailable.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1
	}
	fs := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fs) < 9 || fs[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fs[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/machine"
	"repro/internal/netserve"
	"repro/internal/workloads"
)

// setupRounds is how many times a run boots the server; setup_s is the
// median, and only the last server serves the workload.
const setupRounds = 3

// bootTimes is one server boot split by layer.
type bootTimes struct {
	machine, netserve, total time.Duration
}

// boot brings up the default paper-testbed server: the Table 3 machine
// (1.75 GiB DRAM, 96 MiB EPC, 1.5 GiB VRAM), the GPU enclave with every
// catalogued kernel, the continuous-batching scheduler, and a loopback
// listener ready to accept the first dial.
func boot(seed uint64, tr *tracer) (*netserve.Server, string, bootTimes, error) {
	var bt bootTimes
	t0 := time.Now()
	m, err := machine.New(machine.Config{PlatformSeed: fmt.Sprintf("hixperf-%d", seed)})
	if err != nil {
		return nil, "", bt, fmt.Errorf("boot machine: %w", err)
	}
	t1 := time.Now()
	cfg := netserve.Config{Machine: m, Kernels: workloads.AllKernels(), Sched: true}
	if tr != nil {
		cfg.OnSession = tr.hook(m)
	}
	srv, err := netserve.New(cfg)
	if err != nil {
		return nil, "", bt, fmt.Errorf("netserve.New: %w", err)
	}
	t2 := time.Now()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", bt, fmt.Errorf("listen: %w", err)
	}
	bt.machine, bt.netserve, bt.total = t1.Sub(t0), t2.Sub(t1), time.Since(t0)
	return srv, addr.String(), bt, nil
}

// stop shuts a server down and waits for its accept loop to exit.
func stop(srv *netserve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := srv.Wait(); err != nil && !errors.Is(err, netserve.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// bootChild boots a server in a fresh child process (this program with
// -boot-only) and returns its boot times. A fresh process matters: a
// second machine booted in the same process reuses freed heap spans that
// Go must zero first, which times the allocator, not the boot.
func bootChild(seed uint64) (bootTimes, error) {
	var bt bootTimes
	self, err := os.Executable()
	if err != nil {
		return bt, err
	}
	out, err := exec.Command(self, "-boot-only", "-seed", strconv.FormatUint(seed, 10)).Output()
	if err != nil {
		return bt, fmt.Errorf("boot child: %w", err)
	}
	if _, err := fmt.Sscan(string(out), &bt.machine, &bt.netserve, &bt.total); err != nil {
		return bt, fmt.Errorf("boot child output %q: %w", out, err)
	}
	return bt, nil
}

// bootOnly is the child side of bootChild: boot, shut down, print the
// boot times in nanoseconds.
func bootOnly(seed uint64) error {
	srv, _, bt, err := boot(seed, nil)
	if err != nil {
		return err
	}
	if err := stop(srv); err != nil {
		return err
	}
	fmt.Println(int64(bt.machine), int64(bt.netserve), int64(bt.total))
	return nil
}

// bootRepeated boots the server setupRounds times, all but the last in
// child processes, and returns the last, which serves the workload,
// together with every boot's times.
func bootRepeated(seed uint64, tr *tracer) (*netserve.Server, string, []bootTimes, error) {
	var times []bootTimes
	for i := 1; i < setupRounds; i++ {
		bt, err := bootChild(seed)
		if err != nil {
			return nil, "", nil, err
		}
		times = append(times, bt)
	}
	srv, addr, bt, err := boot(seed, tr)
	if err != nil {
		return nil, "", nil, err
	}
	return srv, addr, append(times, bt), nil
}

package main

import (
	"crypto/rand"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/hix"
	"repro/internal/netserve"
	"repro/internal/ocb"
	"repro/internal/sim"
)

// metricDef names one metric, its unit and, for a per-layer metric, the
// end-to-end metric it should move and on which workload.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics of the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"peak_rss_mib", "MiB", ""},
	{"job_p50_ms", "ms", ""},
	{"cpu_ms_per_job", "ms", ""},
	{"sim_job_ms", "ms", ""},
	{"connect_full_p50_ms", "ms", ""},
	{"connect_resumed_p50_ms", "ms", ""},
}

// layerMetrics are the metrics of the traced run, one group per module.
var layerMetrics = []metricDef{
	{"hixrt.htod_p50_ms", "ms", "job_p50_ms, cpu_ms_per_job on bulk-jobs"},
	{"hixrt.dtoh_p50_ms", "ms", "job_p50_ms, cpu_ms_per_job on bulk-jobs"},
	{"hixrt.launch_p50_ms", "ms", "job_p50_ms on small-jobs"},
	{"hixrt.alloc_p50_ms", "ms", "job_p50_ms on connect-churn"},
	{"hixrt.close_p50_ms", "ms", "job_p50_ms on connect-churn"},
	{"hixrt.request_p50_ms", "ms", "job_p50_ms on small-jobs"},
	{"hixrt.job_p99_ms", "ms", "diagnostic only"},
	{"netserve.service_p50_ms", "ms", "job_p50_ms on small-jobs"},
	{"netserve.service_p99_ms", "ms", "job_p50_ms on small-jobs"},
	{"netserve.transport_p50_ms", "ms", "job_p50_ms on small-jobs"},
	{"netserve.resume_accept_ratio", "ratio", "connect_resumed_p50_ms on connect-churn"},
	{"sched.wait_us_per_ticket", "us", "job_p50_ms on small-jobs and connect-churn"},
	{"sched.tickets_per_batch", "count", "cpu_ms_per_job on small-jobs"},
	{"sched.max_pending", "count", "job_p50_ms on small-jobs and connect-churn"},
	{"hix.requests_per_wakeup", "count", "cpu_ms_per_job, job_p50_ms on small-jobs"},
	{"hix.empty_wakeups_per_job", "count", "cpu_ms_per_job, job_p50_ms on small-jobs"},
	{"hix.epoch_p50_us", "us", "cpu_ms_per_job, job_p50_ms on small-jobs"},
	{"gpu.ctx_switches_per_job", "count", "sim_job_ms on small-jobs"},
	{"attest.dh_ops_per_full_dial", "count", "connect_full_p50_ms on connect-churn"},
	{"attest.dh_ops_per_resumed_dial", "count", "connect_full_p50_ms on connect-churn"},
	{"part.prefer_hit_ratio", "ratio", "connect_resumed_p50_ms on connect-churn"},
	{"ocb.seal_4k_mib_s", "MiB/s", "cpu_ms_per_job, job_p50_ms on bulk-jobs; no move on connect-churn"},
	{"ocb.open_4k_mib_s", "MiB/s", "cpu_ms_per_job, job_p50_ms on bulk-jobs; no move on connect-churn"},
	{"ocb.seal_1m_mib_s", "MiB/s", "cpu_ms_per_job, job_p50_ms on bulk-jobs; no move on connect-churn"},
	{"ocb.open_1m_mib_s", "MiB/s", "cpu_ms_per_job, job_p50_ms on bulk-jobs; no move on connect-churn"},
	{"machine.boot_s", "s", "setup_s, peak_rss_mib everywhere"},
	{"netserve.new_s", "s", "setup_s, peak_rss_mib everywhere"},
	{"sim.pcie_busy_us_per_job", "us", "sim_job_ms on bulk-jobs"},
	{"sim.gpu_dma_busy_us_per_job", "us", "sim_job_ms on bulk-jobs"},
	{"sim.gpu_compute_busy_us_per_job", "us", "sim_job_ms on small-jobs"},
	{"sim.gpu_crypto_busy_us_per_job", "us", "sim_job_ms on bulk-jobs"},
	{"sim.cpu_crypto_busy_us_per_job", "us", "sim_job_ms on bulk-jobs"},
	{"sim.ge_core_busy_us_per_job", "us", "sim_job_ms on small-jobs and connect-churn"},
	{"go.alloc_kib_per_job", "KiB", "peak_rss_mib, cpu_ms_per_job"},
	{"go.gc_cycles", "count", "peak_rss_mib, cpu_ms_per_job"},
	{"trace.jobs_ratio", "ratio", "tracing overhead: traced over untraced operations per second"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("hixperf: unknown metric " + name)
}

// snapshot is the program's counters at one instant.
type snapshot struct {
	at      time.Time
	cpu     time.Duration
	horizon sim.Time
	steal   int64
	alloc   uint64 // runtime.MemStats.TotalAlloc
	gcs     uint32
	serve   hix.ServeStats
	batches int64
	tickets int64
	ctxSw   uint64
	busy    map[string]float64 // simulated busy ns per resource group
}

func takeSnapshot(srv *netserve.Server) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := srv.Machine()
	s := snapshot{
		horizon: m.Timeline.Horizon(),
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		serve:   srv.Enclave().ServeStats(),
		ctxSw:   m.GPU.ContextSwitches(),
		busy:    make(map[string]float64),
	}
	for _, sc := range srv.Scheds() {
		st := sc.Snapshot()
		s.batches += st.Batches
		s.tickets += st.Tickets
	}
	h := float64(s.horizon)
	busy := func(r sim.Resource) float64 { return m.Timeline.Utilization(r) * h }
	s.busy["pcie"] = busy(sim.ResPCIe)
	s.busy["gpu_dma"] = busy(sim.ResGPUDMA)
	s.busy["gpu_compute"] = busy(sim.ResGPUCompute)
	s.busy["gpu_crypto"] = busy(sim.GPUCryptoLane(0, 0))
	s.busy["ge_core"] = busy(sim.ResGECore)
	for i := 0; i < max(m.Cost.CPULanes, 1); i++ {
		s.busy["cpu_crypto"] += busy(sim.CryptoLane(i))
	}
	// Wall and CPU clocks last, so the counter reads above stay outside
	// the window they bound.
	s.steal = stealTicks()
	s.cpu = cpuTime()
	s.at = time.Now()
	return s
}

// window is one measured window: the differences of the counters across
// it and what the clients recorded.
type window struct {
	wall, cpu time.Duration
	sim       sim.Duration
	steal     int64 // clock ticks, -1 if unknown
	jobs      int
	rec       record // merged over the clients
	s0, s1    snapshot
	maxPend   int
}

func (w *window) jobsPerSec() float64 { return float64(w.jobs) / w.wall.Seconds() }

// measure runs step on every client for d and returns the window.
func measure(srv *netserve.Server, cs []*client, d time.Duration, step func(*client) (time.Duration, error)) (*window, error) {
	for _, c := range cs {
		c.rec = record{}
	}
	s0 := takeSnapshot(srv)
	err := phase(cs, 0, d, step)
	// The end clocks are read before the other counters.
	at, cpu, steal := time.Now(), cpuTime(), stealTicks()
	if err != nil {
		return nil, err
	}
	s1 := takeSnapshot(srv)
	w := &window{wall: at.Sub(s0.at), cpu: cpu - s0.cpu, sim: s1.horizon.Sub(s0.horizon), s0: s0, s1: s1, steal: -1}
	if steal >= 0 && s0.steal >= 0 {
		w.steal = steal - s0.steal
	}
	for _, c := range cs {
		w.rec.jobs = append(w.rec.jobs, c.rec.jobs...)
		w.rec.full = append(w.rec.full, c.rec.full...)
		w.rec.resumed = append(w.rec.resumed, c.rec.resumed...)
		for o := range w.rec.calls {
			w.rec.calls[o] = append(w.rec.calls[o], c.rec.calls[o]...)
		}
	}
	w.jobs = len(w.rec.jobs)
	if w.jobs == 0 {
		return nil, fmt.Errorf("no operation completed in the %v window", d)
	}
	for _, sc := range srv.Scheds() {
		w.maxPend = max(w.maxPend, sc.Snapshot().MaxPending)
	}
	fmt.Printf("# window: wall_s=%.3f ops=%d ops_per_s=%.1f cpu_s=%.3f steal_s=%.2f (machine-wide, %d cpus)\n",
		w.wall.Seconds(), w.jobs, w.jobsPerSec(), w.cpu.Seconds(), float64(w.steal)/userHZ, runtime.NumCPU())
	return w, nil
}

// layerValues computes the per-layer metrics of a traced run. base is
// the untraced window that precedes the traced window win; probe holds
// the connect probe's calls (small-jobs, bulk-jobs).
func layerValues(w workload, srv *netserve.Server, boots []bootTimes, base, win *window, probe record, life *lifecycle, tr *tracer) map[string]float64 {
	v := make(map[string]float64)
	jobs := float64(win.jobs)
	calls := win.rec.calls
	if !w.churn {
		calls[opAlloc], calls[opClose] = probe.calls[opAlloc], probe.calls[opClose]
	}
	v["hixrt.htod_p50_ms"] = quantileMS(calls[opHtoD], 0.5)
	v["hixrt.dtoh_p50_ms"] = quantileMS(calls[opDtoH], 0.5)
	v["hixrt.launch_p50_ms"] = quantileMS(calls[opLaunch], 0.5)
	v["hixrt.alloc_p50_ms"] = quantileMS(calls[opAlloc], 0.5)
	v["hixrt.close_p50_ms"] = quantileMS(calls[opClose], 0.5)
	var reqs []time.Duration
	for _, o := range []op{opAlloc, opHtoD, opLaunch, opDtoH} {
		reqs = append(reqs, win.rec.calls[o]...)
	}
	v["hixrt.request_p50_ms"] = quantileMS(reqs, 0.5)
	v["hixrt.job_p99_ms"] = quantileMS(win.rec.jobs, 0.99)

	svc := srv.LoadHist()
	v["netserve.service_p50_ms"] = float64(svc.P50) / 1e6
	v["netserve.service_p99_ms"] = float64(svc.P99) / 1e6
	v["netserve.transport_p50_ms"] = v["hixrt.request_p50_ms"] - v["netserve.service_p50_ms"]
	rs := srv.ResumeStats()
	v["netserve.resume_accept_ratio"] = ratio(float64(rs.Accepted), float64(rs.Accepted+rs.Fallbacks))

	epochs, waitNS, admitted := tr.totals()
	v["sched.wait_us_per_ticket"] = ratio(float64(waitNS)/1e3, float64(admitted))
	v["sched.tickets_per_batch"] = ratio(float64(win.s1.tickets-win.s0.tickets), float64(win.s1.batches-win.s0.batches))
	v["sched.max_pending"] = float64(win.maxPend)

	sv0, sv1 := win.s0.serve, win.s1.serve
	v["hix.requests_per_wakeup"] = ratio(float64(sv1.Requests-sv0.Requests), float64(sv1.Wakeups-sv0.Wakeups))
	v["hix.empty_wakeups_per_job"] = float64(sv1.EmptyWakeups-sv0.EmptyWakeups) / jobs
	v["hix.epoch_p50_us"] = quantileMS(epochs, 0.5) * 1e3

	v["gpu.ctx_switches_per_job"] = float64(win.s1.ctxSw-win.s0.ctxSw) / jobs

	v["attest.dh_ops_per_full_dial"] = ratio(float64(life.fullDH), float64(life.fullDials))
	v["attest.dh_ops_per_resumed_dial"] = ratio(float64(life.resumedDH), float64(life.resumedDials))
	v["part.prefer_hit_ratio"] = ratio(float64(srv.Placer().PreferHits()), float64(life.resumedDials))

	mach, ns := make([]float64, len(boots)), make([]float64, len(boots))
	for i, b := range boots {
		mach[i], ns[i] = b.machine.Seconds(), b.netserve.Seconds()
	}
	v["machine.boot_s"] = median(mach)
	v["netserve.new_s"] = median(ns)

	for _, r := range []string{"pcie", "gpu_dma", "gpu_compute", "gpu_crypto", "cpu_crypto", "ge_core"} {
		v["sim."+r+"_busy_us_per_job"] = (win.s1.busy[r] - win.s0.busy[r]) / 1e3 / jobs
	}
	v["go.alloc_kib_per_job"] = float64(win.s1.alloc-win.s0.alloc) / 1024 / jobs
	v["go.gc_cycles"] = float64(win.s1.gcs - win.s0.gcs)
	v["trace.jobs_ratio"] = win.jobsPerSec() / base.jobsPerSec()
	fmt.Printf("# trace overhead: traced %.1f ops/s against untraced %.1f ops/s\n", win.jobsPerSec(), base.jobsPerSec())
	return v
}

// ocbRates measures OCB seal and open throughput directly on the
// workloads' payload sizes: the median of five rounds of 16 MiB each.
func ocbRates(v map[string]float64) {
	key := make([]byte, 16)
	_, _ = rand.Read(key) // crypto/rand.Read does not fail on Linux
	a, err := ocb.New(key)
	if err != nil {
		panic(err) // a 16-byte AES key is always valid
	}
	nonce := make([]byte, ocb.NonceSize)
	for _, sz := range []struct {
		name string
		n    int
	}{{"4k", 4 << 10}, {"1m", 1 << 20}} {
		pt := make([]byte, sz.n)
		ct := make([]byte, sz.n+ocb.TagSize)
		_, _ = rand.Read(pt)
		reps := (16 << 20) / sz.n
		seal, open := make([]float64, 5), make([]float64, 5)
		for r := range seal {
			t := time.Now()
			for i := 0; i < reps; i++ {
				a.SealInto(ct, nonce, pt, nil)
			}
			seal[r] = 16 / time.Since(t).Seconds()
			t = time.Now()
			for i := 0; i < reps; i++ {
				if _, err := a.OpenInto(pt, nonce, ct, nil); err != nil {
					panic(err) // ct was sealed under the same key and nonce
				}
			}
			open[r] = 16 / time.Since(t).Seconds()
		}
		v["ocb.seal_"+sz.name+"_mib_s"] = median(seal)
		v["ocb.open_"+sz.name+"_mib_s"] = median(open)
	}
}

// printLayers prints each per-layer metric next to the end-to-end
// metric it should move.
func printLayers(w workload, v map[string]float64) {
	fmt.Printf("# per-layer metrics on %s (metric, value, unit, should move)\n", w.name)
	for _, l := range layerMetrics {
		fmt.Printf("#   %-34s %14.4f %-6s -> %s\n", l.name, v[l.name], l.unit, l.moves)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantileMS is the q-quantile of ds in milliseconds (nearest rank).
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return ms(s[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Command hixperf is the repository's serving benchmark. It boots the
// default paper-testbed server in process, drives it over loopback TCP
// from two closed-loop client connections, checks every job's output and
// prints the end-to-end metrics, or, with --trace 1, the per-layer
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	hixperf --workload small-jobs|bulk-jobs|connect-churn --seed N --seconds S --trace 0|1
//
// See README.md for the workloads, the metrics and how they are taken.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// workload is one traffic shape.
type workload struct {
	name   string
	n      int  // matrix side of one job
	churn  bool // an operation is a whole session, not one job
	warmup int  // operations per client before the measured window
}

var shapes = []workload{
	{name: "small-jobs", n: 32, warmup: 200},
	{name: "bulk-jobs", n: 512, warmup: 8},
	{name: "connect-churn", n: churnN, churn: true, warmup: 8},
}

const (
	numClients = 2 // one closed-loop connection per core of the reference host
	// probePairs is how many full and how many resumed connect-churn
	// sessions a probe client opens, alternating and one at a time,
	// before small-jobs and bulk-jobs; their dials give those workloads'
	// connect metrics.
	probePairs = 96
	churnN     = 32 // matrix side of a connect-churn session's job
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "small-jobs, bulk-jobs or connect-churn")
	seed := flag.Uint64("seed", 1, "seed of the job inputs and the platform entropy")
	secs := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	child := flag.Bool("boot-only", false, "boot the server once, print its boot times in ns and exit (set-up timing)")
	flag.Parse()
	if *child {
		if err := bootOnly(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "hixperf: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range shapes {
		if shapes[i].name == *name {
			w = &shapes[i]
		}
	}
	if w == nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(*w, *seed, time.Duration(*secs)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hixperf: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hixperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run performs one benchmark run: set-up, warm-up, the measured window
// (preceded by an untraced one in the traced run) and the checks.
func run(w workload, seed uint64, length time.Duration, traced bool) (res *result, err error) {
	fmt.Printf("# hixperf workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d numcpu=%d go=%s\n",
		w.name, seed, length.Seconds(), traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	srv, addr, boots, err := bootRepeated(seed, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := stop(srv); err == nil && serr != nil {
			res, err = nil, serr
		}
	}()
	life := &lifecycle{srv: srv}
	cs := make([]*client, numClients)
	for i := range cs {
		cs[i] = newClient(i, addr, seed, w.n, life)
	}

	var probe record
	step := (*client).churnStep
	if !w.churn {
		step = (*client).jobStep
		p := newClient(numClients, addr, seed, churnN, life)
		p.tr = tr
		setTracing(tr, true)
		for i := 0; i < 2*probePairs; i++ {
			if _, err := p.session(i%2 == 1); err != nil {
				return nil, fmt.Errorf("connect probe: %w", err)
			}
		}
		setTracing(tr, false)
		probe = p.rec
		for _, c := range cs {
			if c.sess, err = c.dial(false); err != nil {
				return nil, err
			}
			if err := c.alloc(c.sess); err != nil {
				return nil, err
			}
		}
	}
	if err := phase(cs, w.warmup, 0, step); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	var base *window
	if traced {
		if base, err = measure(srv, cs, length, step); err != nil {
			return nil, err
		}
		setTracing(tr, true)
		for _, c := range cs {
			c.tr = tr
			if c.sess != nil {
				tr.markTenant(srv, c.sess.SessionID())
			}
		}
	}
	win, err := measure(srv, cs, length, step)
	setTracing(tr, false)
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		if c.sess != nil {
			if err := c.close(c.sess); err != nil {
				return nil, err
			}
		}
	}
	if err := checkAccepted(srv.ResumeStats().Accepted, life.resumedDials); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.failure(); err != nil {
			return nil, err
		}
	}

	connect := win.rec
	if !w.churn {
		connect = probe
	}
	res = &result{Correct: true, Attempted: win.jobs, Metrics: map[string]metric{}}
	if !traced {
		put := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(endToEnd, name)} }
		setup := make([]float64, len(boots))
		for i, b := range boots {
			setup[i] = b.total.Seconds()
		}
		put("setup_s", median(setup))
		put("peak_rss_mib", peak)
		put("job_p50_ms", quantileMS(win.rec.jobs, 0.5))
		put("cpu_ms_per_job", ms(win.cpu)/float64(win.jobs))
		put("sim_job_ms", float64(win.sim)/1e6/float64(win.jobs))
		put("connect_full_p50_ms", quantileMS(connect.full, 0.5))
		put("connect_resumed_p50_ms", quantileMS(connect.resumed, 0.5))
	} else {
		lm := layerValues(w, srv, boots, base, win, probe, life, tr)
		ocbRates(lm)
		printLayers(w, lm)
		for _, l := range layerMetrics {
			res.Metrics[l.name] = metric{lm[l.name], l.unit}
		}
	}
	return res, nil
}

// setTracing switches the server-side hooks' recording on or off.
func setTracing(tr *tracer, on bool) {
	if tr != nil {
		tr.on.Store(on)
	}
}

// phase runs step on every client concurrently, each either count times
// or, with count 0, until d has passed, and records each operation's
// wall time.
func phase(cs []*client, count int, d time.Duration, step func(*client) (time.Duration, error)) error {
	deadline := time.Now().Add(d)
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for k := 0; ; k++ {
				if count > 0 && k == count || count == 0 && !time.Now().Before(deadline) {
					return
				}
				t, err := step(c)
				if err != nil {
					errs[i] = fmt.Errorf("client %d: %w", c.id, err)
					return
				}
				c.rec.jobs = append(c.rec.jobs, t)
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

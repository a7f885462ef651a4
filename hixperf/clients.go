package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/attest"
	"repro/internal/gpu"
	"repro/internal/hixrt"
	"repro/internal/netserve"
	"repro/internal/ocb"
)

// op names a RemoteSession call the traced run times.
type op int

const (
	opAlloc op = iota
	opHtoD
	opLaunch
	opDtoH
	opClose
	numOps
)

// lifecycle serializes dials and closes across the clients. A dial's DH
// count is read as the delta of the process-wide attest.DHOps counter,
// so no other dial may run meanwhile; and a dial that waited behind the
// other tenant's close-time scrub would time that scrub, not the
// handshake. Jobs still overlap the other client's dials and closes.
type lifecycle struct {
	srv          *netserve.Server // the server the clients dial
	mu           sync.Mutex
	fullDials    int64
	fullDH       int64
	resumedDials int64
	resumedDH    int64
}

// matrices is one client's job buffers: host copies of A, B and C and
// their device pointers in the current session.
type matrices struct {
	n          uint64
	a, b, c    []byte
	pa, pb, pc hixrt.Ptr
}

func newMatrices(n int) *matrices {
	sz := 4 * n * n
	return &matrices{n: uint64(n), a: make([]byte, sz), b: make([]byte, sz), c: make([]byte, sz)}
}

// record is what one client observed in one phase of a run.
type record struct {
	jobs          []time.Duration // verified jobs; whole sessions in connect-churn
	full, resumed []time.Duration // dial times by handshake kind
	calls         [numOps][]time.Duration
}

// client is one closed-loop tenant connection: it waits for every reply
// before sending its next request.
type client struct {
	id      int
	addr    string
	measure attest.Measurement
	rng     *rand.Rand
	mat     *matrices
	life    *lifecycle
	sess    *hixrt.RemoteSession // persistent session (small-jobs, bulk-jobs)
	ticket  []byte               // from the latest Welcome
	dials   int
	tr      *tracer // nil while untraced
	rec     record
	waited  time.Duration // time spent waiting for the lifecycle lock
}

func newClient(id int, addr string, seed uint64, n int, life *lifecycle) *client {
	return &client{
		id:      id,
		addr:    addr,
		measure: attest.Measure([]byte(fmt.Sprintf("hixperf tenant %d", id))),
		rng:     rand.New(rand.NewPCG(seed, uint64(id))),
		mat:     newMatrices(n),
		life:    life,
	}
}

// call runs f, timing it as o when the client is traced.
func (c *client) call(o op, f func() error) error {
	if c.tr == nil {
		return f()
	}
	t := time.Now()
	err := f()
	c.rec.calls[o] = append(c.rec.calls[o], time.Since(t))
	return err
}

// fillRandom overwrites buf with bytes drawn from rng.
func fillRandom(buf []byte, rng *rand.Rand) {
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.Uint64())
	}
}

// alloc places the client's three matrices in s's device memory.
func (c *client) alloc(s *hixrt.RemoteSession) error {
	m := c.mat
	sz := 4 * m.n * m.n
	for _, p := range []*hixrt.Ptr{&m.pa, &m.pb, &m.pc} {
		err := c.call(opAlloc, func() error {
			var err error
			*p, err = s.MemAlloc(sz)
			return err
		})
		if err != nil {
			return fmt.Errorf("alloc: %w", err)
		}
	}
	return nil
}

// job draws fresh A and B, uploads them, runs C = A + B with mat_add_i32,
// downloads C and checks it against the sum computed on the host. It
// returns the wall time from the first upload to the end of the
// download.
func (c *client) job(s *hixrt.RemoteSession) (time.Duration, error) {
	m := c.mat
	fillRandom(m.a, c.rng)
	fillRandom(m.b, c.rng)
	var params [gpu.NumKernelParams]uint64
	params[0], params[1], params[2], params[3] = uint64(m.pa), uint64(m.pb), uint64(m.pc), m.n
	start := time.Now()
	if err := c.call(opHtoD, func() error { return s.MemcpyHtoD(m.pa, m.a, 0) }); err != nil {
		return 0, fmt.Errorf("upload A: %w", err)
	}
	if err := c.checkSealed(s, m.a); err != nil {
		return 0, err
	}
	if err := c.call(opHtoD, func() error { return s.MemcpyHtoD(m.pb, m.b, 0) }); err != nil {
		return 0, fmt.Errorf("upload B: %w", err)
	}
	if err := c.checkSealed(s, m.b); err != nil {
		return 0, err
	}
	if err := c.call(opLaunch, func() error { return s.Launch("mat_add_i32", params) }); err != nil {
		return 0, fmt.Errorf("launch: %w", err)
	}
	if err := c.call(opDtoH, func() error { return s.MemcpyDtoH(m.c, m.pc, 0) }); err != nil {
		return 0, fmt.Errorf("download C: %w", err)
	}
	d := time.Since(start)
	return d, checkSum(m.a, m.b, m.c)
}

// checkSealed checks, in the traced run, every sealed chunk the last
// upload left in the shared segment against the plaintext it carried.
func (c *client) checkSealed(s *hixrt.RemoteSession, plain []byte) error {
	if c.tr == nil {
		return nil
	}
	chunks := c.tr.takeSealed(s.SessionID())
	if len(chunks) == 0 {
		return fmt.Errorf("seal check: no sealed chunk seen for session %d", s.SessionID())
	}
	off := 0
	for _, ch := range chunks {
		end := off + len(ch) - ocb.TagSize
		if end > len(plain) {
			return fmt.Errorf("seal check: chunks cover more than the %d-byte upload", len(plain))
		}
		if err := checkSealed(plain[off:end], ch); err != nil {
			return err
		}
		off = end
	}
	if off != len(plain) {
		return fmt.Errorf("seal check: chunks cover %d of %d uploaded bytes", off, len(plain))
	}
	return nil
}

// dial opens a session: a full attested handshake, or, when ticketed,
// one presenting the ticket from the previous Welcome. It checks the
// handshake kind and its DH count.
func (c *client) dial(ticketed bool) (*hixrt.RemoteSession, error) {
	cfg := hixrt.RemoteConfig{Measurement: c.measure}
	if ticketed {
		cfg.Ticket = c.ticket
	}
	l := c.life
	c.lock()
	dh0 := attest.DHOps()
	t := time.Now()
	s, err := hixrt.DialConfig(c.addr, cfg)
	d := time.Since(t)
	dh := attest.DHOps() - dh0
	if err == nil {
		if ticketed {
			l.resumedDials++
			l.resumedDH += dh
		} else {
			l.fullDials++
			l.fullDH += dh
		}
	}
	l.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	c.dials++
	if err := checkDial(ticketed, s.Resumed(), dh); err != nil {
		_ = s.Close()
		return nil, err
	}
	c.ticket = s.Ticket()
	if ticketed {
		c.rec.resumed = append(c.rec.resumed, d)
	} else {
		c.rec.full = append(c.rec.full, d)
	}
	return s, nil
}

// lock takes the lifecycle lock, counting the wait in c.waited.
func (c *client) lock() {
	t := time.Now()
	c.life.mu.Lock()
	c.waited += time.Since(t)
}

// close ends a session under the lifecycle lock. It holds the lock until
// the server has torn the connection down, so the next dial does not
// wait behind that teardown.
func (c *client) close(s *hixrt.RemoteSession) error {
	c.lock()
	defer c.life.mu.Unlock()
	srv := c.life.srv
	if c.tr != nil {
		c.tr.noteTenant(srv, s.SessionID())
	}
	n := srv.ConnCount()
	if err := c.call(opClose, s.Close); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.ConnCount() >= n {
		if time.Now().After(deadline) {
			return fmt.Errorf("close: server still holds %d connections after 10s", srv.ConnCount())
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// session is one connect-churn operation: dial, three allocations, one
// job and a close. It returns the session's wall time less the time it
// waited for the lifecycle lock, which the benchmark imposes and the
// program does not.
func (c *client) session(ticketed bool) (time.Duration, error) {
	start := time.Now()
	c.waited = 0
	s, err := c.dial(ticketed)
	if err != nil {
		return 0, err
	}
	if err := c.alloc(s); err != nil {
		_ = s.Close()
		return 0, err
	}
	if _, err := c.job(s); err != nil {
		_ = s.Close()
		return 0, err
	}
	if err := c.close(s); err != nil {
		return 0, err
	}
	return time.Since(start) - c.waited, nil
}

// churnStep runs the next connect-churn session: every fourth dial is a
// full handshake, the others resume.
func (c *client) churnStep() (time.Duration, error) {
	return c.session(c.dials%4 != 0)
}

// jobStep runs the next job on the persistent session.
func (c *client) jobStep() (time.Duration, error) {
	return c.job(c.sess)
}

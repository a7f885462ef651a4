package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hixrt"
	"repro/internal/machine"
	"repro/internal/netserve"
)

// tracer gathers, in the traced run, what the server side of the
// benchmark sees through the hosted sessions' hooks: the sealed chunks
// each upload leaves in the shared segment, the wall time of each
// serving epoch, and each tenant's scheduler wait. Hooks record only
// while on is set, so the traced run's untraced window runs the same
// code with recording off.
type tracer struct {
	on atomic.Bool

	mu     sync.Mutex
	err    error               // first hook failure
	sealed map[uint32][][]byte // session id -> sealed chunks not yet checked
	epochs []time.Duration     // BeforeServe -> AfterReply
	// Scheduler wait and admitted tickets of the traced window's tenants.
	waitNS, admitted int64
	// Persistent sessions' tenant counters at the start of the window.
	tenantBase map[uint32][2]int64
}

func newTracer() *tracer {
	return &tracer{sealed: make(map[uint32][][]byte), tenantBase: make(map[uint32][2]int64)}
}

// hook returns the netserve OnSession instrumentation for machine m.
func (t *tracer) hook(m *machine.Machine) func(*hixrt.Session) {
	return func(s *hixrt.Session) {
		seg, sid := s.Segment(), s.ID()
		var begun atomic.Int64
		s.Hooks.AfterDataWrite = func(off, n int) {
			if !t.on.Load() {
				return
			}
			buf := make([]byte, n)
			err := m.OS.ShmReadPhys(seg, off, buf)
			t.mu.Lock()
			defer t.mu.Unlock()
			if err != nil {
				if t.err == nil {
					t.err = fmt.Errorf("read shared segment: %w", err)
				}
				return
			}
			t.sealed[sid] = append(t.sealed[sid], buf)
		}
		s.Hooks.BeforeServe = func() {
			if t.on.Load() {
				begun.Store(time.Now().UnixNano())
			}
		}
		s.Hooks.AfterReply = func() {
			if b := begun.Swap(0); b != 0 {
				d := time.Duration(time.Now().UnixNano() - b)
				t.mu.Lock()
				t.epochs = append(t.epochs, d)
				t.mu.Unlock()
			}
		}
	}
}

// takeSealed returns and forgets the chunks captured for session sid.
func (t *tracer) takeSealed(sid uint32) [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch := t.sealed[sid]
	delete(t.sealed, sid)
	return ch
}

// tenant reads session sid's scheduler counters: cumulative queue wait
// and admitted tickets.
func tenant(srv *netserve.Server, sid uint32) (waitNS, admitted int64) {
	for _, sc := range srv.Scheds() {
		for _, ts := range sc.Snapshot().Tenants {
			if ts.Session == sid {
				return ts.WaitNS, ts.Admitted
			}
		}
	}
	return 0, 0
}

// markTenant records a persistent session's scheduler counters at the
// start of the traced window.
func (t *tracer) markTenant(srv *netserve.Server, sid uint32) {
	w, a := tenant(srv, sid)
	t.mu.Lock()
	t.tenantBase[sid] = [2]int64{w, a}
	t.mu.Unlock()
}

// noteTenant adds session sid's scheduler counters since markTenant (or
// since the session opened) to the window's totals.
func (t *tracer) noteTenant(srv *netserve.Server, sid uint32) {
	w, a := tenant(srv, sid)
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.tenantBase[sid]
	t.waitNS += w - base[0]
	t.admitted += a - base[1]
}

// failure returns the first error a hook met.
func (t *tracer) failure() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// totals returns the epoch times and the scheduler wait and admitted
// tickets gathered so far.
func (t *tracer) totals() (epochs []time.Duration, waitNS, admitted int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.epochs...), t.waitNS, t.admitted
}

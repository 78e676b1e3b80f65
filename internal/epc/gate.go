package epc

import (
	"sync"
	"time"

	"dlte/internal/simnet"
)

// gateEpsilon is the registration window of a deterministic gate:
// every entrant that arrives at one virtual instant gets this long
// (one virtual nanosecond — invisible at any rendered precision) to
// enqueue before admission order is decided. Under a VirtualClock,
// time cannot pass the window until all goroutines woken at that
// instant have run, so the queue is complete when the window closes.
const gateEpsilon = time.Nanosecond

// gateWaiter is one entrant awaiting admission, keyed by virtual
// arrival time with an actor ID (the eNB connection ID) as tiebreak.
// Each waiter owns a doorbell for direct handoff: the admitting
// goroutine rings exactly the waiters it admits (handing each its
// virtual-clock busy slot), and nobody else wakes.
type gateWaiter struct {
	at       time.Time
	actor    string
	admitted bool // guarded by the gate's mu
	bell     simnet.Bell
}

// detGate admits work onto a bounded number of slots in deterministic
// order. A bare mutex (or semaphore) would admit same-instant
// entrants in whatever order the Go scheduler unblocks them —
// nondeterministic under concurrent simulation worlds. Instead
// admission is strictly by (virtual arrival time, actor ID), both
// functions of simulation state alone: messages on one S1AP
// association are inherently serial, so the key is total, and
// earlier-instant arrivals are always enqueued before virtual time
// moves on (the VirtualClock only advances over a quiescent world).
//
// Admission is batched: whenever a slot frees or the registration
// window closes, tryAdmit pops the whole admissible run of queue
// heads in one pass and hands each admitted waiter its slot directly
// through its own doorbell. The earlier design instead closed a shared
// broadcast channel and let every parked entrant re-check — O(n)
// spurious wakeups per admission, O(n²) per storm burst, which
// dominated the attach-storm profile at high shard counts.
//
// Two gates are built on this: each session shard's serving gate
// (capacity 1 — at most one signaling message per shard in flight,
// which is what makes shard state single-writer) and the modeled
// signaling processor of a centralized EPC (capacity =
// SignalingProcessors, where the admitted work is a ProcessingDelay
// sleep — an M/D/k queue in virtual time).
type detGate struct {
	capacity int // admission slots; 0 means 1

	mu      sync.Mutex
	waiters []*gateWaiter // sorted by (at, actor); small: one per eNB conn
	running int
	free    []*gateWaiter // recycled waiters (and their doorbells)
}

// enqueue queues a waiter for (at, actor), reusing a recycled record.
func (g *detGate) enqueue(at time.Time, actor string) *gateWaiter {
	g.mu.Lock()
	var w *gateWaiter
	if n := len(g.free); n > 0 {
		w = g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
	} else {
		w = &gateWaiter{}
	}
	w.at, w.actor = at, actor
	i := 0
	for i < len(g.waiters) && (g.waiters[i].at.Before(w.at) ||
		(g.waiters[i].at.Equal(w.at) && g.waiters[i].actor < w.actor)) {
		i++
	}
	g.waiters = append(g.waiters, nil)
	copy(g.waiters[i+1:], g.waiters[i:])
	g.waiters[i] = w
	g.mu.Unlock()
	return w
}

// tryAdmit pops every queue head an open slot can take — a whole run
// of same-window arrivals in one pass — and rings each admitted
// waiter's doorbell. Caller holds g.mu.
func (g *detGate) tryAdmit() {
	slots := g.capacity
	if slots < 1 {
		slots = 1
	}
	n := 0
	for g.running < slots && n < len(g.waiters) {
		w := g.waiters[n]
		g.waiters[n] = nil
		n++
		g.running++
		w.admitted = true
		w.bell.Ring()
	}
	if n > 0 {
		rem := copy(g.waiters, g.waiters[n:])
		clear := g.waiters[rem:]
		for i := range clear {
			clear[i] = nil
		}
		g.waiters = g.waiters[:rem]
	}
}

// run executes fn once admitted. All waits go through the clock
// (Sleep, the waiter's doorbell) so a VirtualClock sees queued
// goroutines as parked and advances virtual time deterministically.
func (g *detGate) run(clk simnet.Clock, actor string, fn func()) {
	w := g.enqueue(clk.Now(), actor)
	if _, virtual := clk.(*simnet.VirtualClock); virtual {
		// Same-instant arrivals finish enqueueing before admission
		// order is decided. Only a virtual clock has the quiescence
		// guarantee that makes the window meaningful; on a wall clock
		// the 1 ns sleep is a ~50 µs real timer for nothing.
		clk.Sleep(gateEpsilon)
	}
	g.mu.Lock()
	g.tryAdmit() // may admit us (or a peer did before we got here)
	for !w.admitted {
		seq := w.bell.Seq()
		g.mu.Unlock()
		w.bell.Wait(clk, seq, nil)
		g.mu.Lock()
	}
	g.mu.Unlock()

	fn()

	g.mu.Lock()
	g.running--
	g.tryAdmit()
	w.admitted = false
	g.free = append(g.free, w)
	g.mu.Unlock()
}

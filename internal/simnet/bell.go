package simnet

import (
	"sync"
	"sync/atomic"
	"time"
)

// Bell is a clock-aware doorbell: goroutines park on it until some
// other goroutine rings it (or an optional Timer/Ticker alarm fires),
// and every ring wakes all parked waiters.
//
// Under a VirtualClock a wake is a handoff, exactly like a fired Sleep:
// the ringer (or the advancer, for an alarm) moves the busy slot to the
// waiter under the clock's lock before the waiter's channel is
// signaled. Virtual time therefore cannot move between the wake and
// the moment the woken goroutine runs — no settle round, and no
// dependence on when the Go scheduler gets to it. The ringer must be a
// clock-registered goroutine or a dispatch handler (the advancer
// itself), which is what keeps the world from looking quiescent in
// between.
//
// Lost wakeups are prevented by ring sequence numbers: read Seq before
// checking the condition being waited for, and pass it to Wait, which
// returns at once if the bell has rung since.
//
//	for {
//		seq := b.Seq()
//		if ready() {
//			break
//		}
//		b.Wait(clk, seq, nil)
//	}
//
// On the wall clock, and on a VirtualClock after Close, Wait is a
// plain channel wait (a closed clock's time is frozen, so its alarms
// never fire; the wait ends on a ring). The zero value is ready to use.
type Bell struct {
	mu    sync.Mutex
	rings atomic.Uint64
	// parked mirrors len(waiters) (written under mu) so a Ring with
	// nobody waiting skips the lock: a waiter publishes itself here
	// before it compares rings, and a ringer bumps rings before it
	// reads this, so one of the two always sees the other.
	parked  atomic.Int32
	waiters []*bellWaiter
	// Recycled records, never emptied by a GC cycle: spare holds one
	// without taking mu (most bells have a single waiter), free the rest.
	spare atomic.Pointer[bellWaiter]
	free  []*bellWaiter
}

// bellWaiter is one parked Wait. Each Bell recycles its own records,
// so a park allocates nothing at steady state.
type bellWaiter struct {
	// vc is the virtual clock whose busy slot the waiter gave up; nil
	// for a plain channel wait (wall clock, closed clock). state is
	// guarded by vc.mu when vc is set, else by the bell's mu.
	vc    *VirtualClock
	alarm *vwaiter // the alarm's clock entry while parked on it
	state bellState
	wake  chan struct{} // cap 1: exactly one token per park
}

type bellState uint8

const (
	bellIdle   bellState = iota
	bellParked           // waiting; the one transition out of here wins
	bellRung             // woken by Ring
	bellAlarm            // woken by the alarm
)

// getLocked takes a recycled waiter record. Caller holds b.mu.
func (b *Bell) getLocked() *bellWaiter {
	if w := b.spare.Swap(nil); w != nil {
		return w
	}
	n := len(b.free)
	if n == 0 {
		return &bellWaiter{wake: make(chan struct{}, 1)}
	}
	w := b.free[n-1]
	b.free[n-1] = nil
	b.free = b.free[:n-1]
	return w
}

// release recycles a woken waiter's record. A ring already dropped it
// from the waiter list; an alarm-woken waiter drops itself.
func (b *Bell) release(w *bellWaiter) {
	rang := w.state == bellRung
	w.vc, w.alarm, w.state = nil, nil, bellIdle
	if rang && b.spare.CompareAndSwap(nil, w) {
		return
	}
	b.mu.Lock()
	if !rang {
		for i, x := range b.waiters {
			if x == w {
				last := len(b.waiters) - 1
				copy(b.waiters[i:], b.waiters[i+1:])
				b.waiters[last] = nil
				b.waiters = b.waiters[:last]
				b.parked.Add(-1)
				break
			}
		}
	}
	b.free = append(b.free, w)
	b.mu.Unlock()
}

// Alarm is the optional timeout of a Bell wait: a *Timer or *Ticker
// created on the waiting goroutine's clock.
type Alarm interface {
	alarm() (<-chan time.Time, *vwaiter)
}

// A nil *Timer or *Ticker is no alarm at all, so an optional deadline
// timer can be passed as is.
func (t *Timer) alarm() (<-chan time.Time, *vwaiter) {
	if t == nil {
		return nil, nil
	}
	return t.C, t.vw
}

func (t *Ticker) alarm() (<-chan time.Time, *vwaiter) {
	if t == nil {
		return nil, nil
	}
	return t.C, t.vw
}

// Seq reports how many times the bell has rung.
func (b *Bell) Seq() uint64 { return b.rings.Load() }

// Ring wakes every goroutine parked on the bell, handing each one its
// busy slot back if it waits under a VirtualClock.
func (b *Bell) Ring() {
	b.rings.Add(1)
	if b.parked.Load() == 0 {
		return
	}
	b.mu.Lock()
	for i, w := range b.waiters {
		b.waiters[i] = nil
		if vc := w.vc; vc != nil {
			vc.mu.Lock()
			if w.state == bellParked {
				w.state = bellRung
				if w.alarm != nil && w.alarm.parked == w {
					w.alarm.parked = nil
				}
				if !vc.closed {
					vc.busy++
				}
				w.wake <- struct{}{}
			}
			// Otherwise its alarm won the race: the waiter is already
			// running and only has to find itself gone from the list.
			vc.mu.Unlock()
			continue
		}
		if w.state == bellParked {
			w.state = bellRung
			w.wake <- struct{}{}
		}
	}
	b.waiters = b.waiters[:0]
	b.parked.Store(0)
	b.mu.Unlock()
}

// Wait parks the calling goroutine until the bell rings after seq or
// alarm (optional) fires, reporting true for a ring. A ring already
// past seq returns at once without parking; so does an alarm whose
// fire is still buffered. clk is the caller's clock; under a
// VirtualClock the caller must be a registered goroutine.
func (b *Bell) Wait(clk Clock, seq uint64, alarm Alarm) bool {
	var ac <-chan time.Time
	var avw *vwaiter
	if alarm != nil {
		ac, avw = alarm.alarm()
	}
	b.mu.Lock()
	b.parked.Add(1)
	if b.rings.Load() != seq {
		b.parked.Add(-1)
		b.mu.Unlock()
		return true
	}
	select {
	case <-ac:
		b.parked.Add(-1)
		b.mu.Unlock()
		return false
	default:
	}
	w := b.getLocked()
	b.waiters = append(b.waiters, w)
	if vc, ok := clk.(*VirtualClock); ok && vc.park(w, avw) {
		b.mu.Unlock()
		<-w.wake // the busy slot was transferred back before the send
		rang := w.state == bellRung
		b.release(w)
		return rang
	}

	// Plain channel wait: wall clock, or a closed virtual clock.
	w.state = bellParked
	b.mu.Unlock()
	if ac == nil {
		<-w.wake
		b.release(w)
		return true
	}
	select {
	case <-w.wake:
		b.release(w)
		return true
	case <-ac:
	}
	// The alarm fired. If a ring raced it, the ring's token is already
	// buffered (Ring sends under b.mu) and must be drained before the
	// record is reused; the alarm still wins, so a one-shot Timer's
	// fire is never lost.
	b.mu.Lock()
	if w.state == bellRung {
		<-w.wake
	}
	w.state = bellAlarm
	b.mu.Unlock()
	b.release(w)
	return false
}

// park gives up the caller's busy slot for a Bell wait, attaching the
// waiter to its alarm's clock entry so the advancer hands the slot back
// when the alarm fires. It reports false on a closed clock (the caller
// falls back to a plain channel wait). The caller holds the bell's mu.
func (c *VirtualClock) park(w *bellWaiter, alarm *vwaiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	if alarm != nil && alarm.idx >= 0 {
		alarm.parked = w
		w.alarm = alarm
	}
	w.vc = c
	w.state = bellParked
	c.busy--
	c.parks.Add(1)
	if c.busy == 0 {
		c.cond.Broadcast()
	}
	return true
}

// WaitGroup is a sync.WaitGroup whose Wait parks through a Bell: the
// Done that brings the counter to zero hands every waiter its busy
// slot, so under a VirtualClock the waiter resumes at the instant the
// group finished. The zero value is ready to use.
type WaitGroup struct {
	n    atomic.Int64
	bell Bell
}

// Add adds delta to the counter; it panics if the counter goes
// negative.
func (g *WaitGroup) Add(delta int) {
	switch n := g.n.Add(int64(delta)); {
	case n < 0:
		panic("simnet: negative WaitGroup counter")
	case n == 0:
		g.bell.Ring()
	}
}

// Done decrements the counter by one.
func (g *WaitGroup) Done() { g.Add(-1) }

// Wait parks until the counter is zero. clk is the caller's clock.
func (g *WaitGroup) Wait(clk Clock) {
	for {
		seq := g.bell.Seq()
		if g.n.Load() == 0 {
			return
		}
		g.bell.Wait(clk, seq, nil)
	}
}

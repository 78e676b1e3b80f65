package simnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// loadScheduler keeps n foreign virtual worlds stepping until the
// returned stop function is called. Each world burns a stretch of CPU
// between steps, so the Go scheduler's processors are busy with
// goroutines that are not the test's — the condition under which a
// wake that relies on being scheduled promptly arrives late.
func loadScheduler(n int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vc := NewVirtual()
			defer vc.Close()
			x := uint64(1)
			for {
				select {
				case <-done:
					sink.Add(x)
					return
				default:
				}
				for j := 0; j < 20000; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
				vc.Sleep(time.Microsecond)
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// sink keeps loadScheduler's busy work from being optimized away.
var sink atomic.Uint64

// TestBellRingHandsOverBusySlot pins the wake-handoff rule: a goroutine
// woken by a ring resumes at the ringer's instant, even though the
// ringer goes straight back to sleep and other worlds crowd the
// scheduler. Were the wake a plain channel send, virtual time could
// move on before the waiter got scheduled and it would read a later
// Now.
func TestBellRingHandsOverBusySlot(t *testing.T) {
	defer loadScheduler(4)()
	clk := NewVirtual()
	defer clk.Close()
	start := clk.Now()
	const rounds = 200
	var b Bell
	clk.Go(func() {
		for i := 0; i < rounds; i++ {
			clk.Sleep(time.Millisecond)
			b.Ring()
			clk.Sleep(time.Millisecond)
		}
	})
	for i := 0; i < rounds; i++ {
		seq := b.Seq()
		if !b.Wait(clk, seq, nil) {
			t.Fatalf("round %d: Wait without an alarm reported an alarm", i)
		}
		want := time.Duration(2*i+1) * time.Millisecond
		if got := clk.Since(start); got != want {
			t.Fatalf("round %d: woke at %v, ring was at %v", i, got, want)
		}
	}
}

// TestBellRingFromHandler is the handoff rule for a ring made inside a
// dispatch handler, which runs on the clock's advancer: the waiter must
// resume at the delivery instant although the advancer goes straight on
// to its next step.
func TestBellRingFromHandler(t *testing.T) {
	defer loadScheduler(4)()
	n := NewVirtualNetwork(Link{Latency: time.Millisecond}, 1)
	defer n.Close()
	clk := n.Clock()
	l, err := n.MustAddHost("b").Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := n.MustAddHost("a").Dial("b:9000")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	var b Bell
	sc.(*Conn).OnDeliver(func([]byte) { b.Ring() }, nil)

	const rounds = 200
	start := clk.Now()
	clk.Go(func() {
		for i := 0; i < rounds; i++ {
			cc.Write([]byte{byte(i)})
			clk.Sleep(2 * time.Millisecond)
		}
	})
	for i := 0; i < rounds; i++ {
		b.Wait(clk, b.Seq(), nil)
		want := time.Duration(2*i+1) * time.Millisecond
		if got := clk.Since(start); got != want {
			t.Fatalf("delivery %d: woke at %v, delivered at %v", i, got, want)
		}
	}
}

// TestBellAlarmFiresAtInstant checks that a Timer or Ticker alarm ends
// a wait on an unrung bell exactly at its virtual instant.
func TestBellAlarmFiresAtInstant(t *testing.T) {
	defer loadScheduler(4)()
	clk := NewVirtual()
	defer clk.Close()
	var b Bell
	start := clk.Now()

	tm := clk.NewTimer(5 * time.Millisecond)
	if b.Wait(clk, b.Seq(), tm) {
		t.Fatal("Timer alarm reported as a ring")
	}
	if got := clk.Since(start); got != 5*time.Millisecond {
		t.Fatalf("Timer alarm woke at %v, want 5ms", got)
	}

	tk := clk.NewTicker(3 * time.Millisecond)
	defer tk.Stop()
	for i := 1; i <= 3; i++ {
		if b.Wait(clk, b.Seq(), tk) {
			t.Fatal("Ticker alarm reported as a ring")
		}
		want := 5*time.Millisecond + time.Duration(3*i)*time.Millisecond
		if got := clk.Since(start); got != want {
			t.Fatalf("tick %d woke at %v, want %v", i, got, want)
		}
	}

	// A ring before the alarm wins, and the alarm stays armed for the
	// next wait.
	tm2 := clk.NewTimer(10 * time.Millisecond)
	at := clk.Since(start)
	clk.Go(func() {
		clk.Sleep(time.Millisecond)
		b.Ring()
	})
	if !b.Wait(clk, b.Seq(), tm2) {
		t.Fatal("ring before the alarm reported as an alarm")
	}
	if got := clk.Since(start); got != at+time.Millisecond {
		t.Fatalf("ring woke at %v, want %v", got, at+time.Millisecond)
	}
	if b.Wait(clk, b.Seq(), tm2) {
		t.Fatal("second wait on the Timer reported a ring")
	}
	if got := clk.Since(start); got != at+10*time.Millisecond {
		t.Fatalf("Timer alarm after a ring woke at %v, want %v", got, at+10*time.Millisecond)
	}
}

// TestBellClosedClockWaitsForRing checks the closed-clock fallback: a
// wait parks on a plain channel — it neither returns early nor spins —
// and returns when the bell rings. Its alarm can never fire, since a
// closed clock's time is frozen.
func TestBellClosedClockWaitsForRing(t *testing.T) {
	clk := NewVirtual()
	tm := clk.NewTimer(time.Millisecond)
	clk.Close()

	var b Bell
	returned := make(chan bool, 1)
	seq := b.Seq()
	go func() { returned <- b.Wait(clk, seq, tm) }()
	select {
	case <-returned:
		t.Fatal("wait on a closed clock returned before any ring")
	case <-time.After(20 * time.Millisecond):
	}
	b.Ring()
	select {
	case rang := <-returned:
		if !rang {
			t.Fatal("ring on a closed clock reported as an alarm")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ring did not wake a wait on a closed clock")
	}
}

// TestBellWall covers the wall-clock fallback: a ring wakes a parked
// waiter, and a wall Timer alarm ends an unrung wait.
func TestBellWall(t *testing.T) {
	var b Bell
	seq := b.Seq()
	go func() {
		time.Sleep(time.Millisecond)
		b.Ring()
	}()
	if !b.Wait(Wall, seq, nil) {
		t.Fatal("ring reported as an alarm")
	}
	tm := Wall.NewTimer(2 * time.Millisecond)
	start := time.Now()
	if b.Wait(Wall, b.Seq(), tm) {
		t.Fatal("alarm reported as a ring")
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("wall alarm fired early")
	}
}

// TestWaitGroupResumesAtFinish checks that WaitGroup.Wait resumes at
// the virtual instant the last member finished.
func TestWaitGroupResumesAtFinish(t *testing.T) {
	defer loadScheduler(4)()
	clk := NewVirtual()
	defer clk.Close()
	start := clk.Now()
	var wg WaitGroup
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Millisecond
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			clk.Sleep(d)
		})
	}
	clk.Go(func() {
		// Keeps the world stepping past the group's finish.
		clk.Sleep(time.Second)
	})
	wg.Wait(clk)
	if got := clk.Since(start); got != 3*time.Millisecond {
		t.Fatalf("Wait resumed at %v, want 3ms", got)
	}
}

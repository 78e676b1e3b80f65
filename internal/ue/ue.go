// Package ue implements the user equipment: a software handset with a
// SIM that attaches to any eNodeB over the air interface, runs the NAS
// state machine, and moves user traffic once registered. Because the
// signaling contract is exactly the standard one, the same Device
// attaches to a dLTE stub core and to a centralized telecom EPC — the
// client-compatibility property the paper's local cores hinge on
// (§4.1).
package ue

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dlte/internal/auth"
	"dlte/internal/enb"
	"dlte/internal/epc"
	"dlte/internal/nas"
	"dlte/internal/simnet"
	"dlte/internal/wire"
)

// Errors from device operations.
var (
	ErrNotAttached = errors.New("ue: not attached")
	ErrTimeout     = errors.New("ue: timeout")
	ErrDetachedMid = errors.New("ue: connection lost")
)

// AttachResult reports a completed registration.
type AttachResult struct {
	// IP is the PDN address the network assigned.
	IP string
	// GUTI is the temporary identity.
	GUTI uint64
	// DirectBreakout echoes the network's architecture flag.
	DirectBreakout bool
	// Duration is the measured attach latency (first message to
	// AttachComplete sent).
	Duration time.Duration
}

// Device is one UE.
type Device struct {
	host *simnet.Host
	sim  auth.SIM
	nue  *nas.UE

	mu       sync.Mutex
	raw      net.Conn
	air      *wire.FrameConn
	attached bool
	result   AttachResult

	rx        chan rxPacket
	nasEvents chan nasEvent
	sysInfo   chan enb.SystemInfo
	readerWG  simnet.WaitGroup

	// nasBell rings when system information or a NAS event is queued,
	// rxBell when a downlink packet is; both ring when the association
	// drops. Attach/Detach and recvPacket park on them.
	nasBell, rxBell simnet.Bell

	// sigTx/sigRx count NAS signaling payload bytes over the air in
	// each direction — the UE end of the mobility plane's measurement
	// seam (a handover's cost is the delta across the re-attach).
	sigTx, sigRx atomic.Uint64
}

// rxPacket is one downlink packet as queued by the read loop: the
// payload sits in a pooled buffer whose ownership travels with the
// packet (the consumer releases it), and the remote endpoint is
// memoized across the run of packets from one peer, so steady-state
// delivery allocates nothing.
type rxPacket struct {
	remote string
	addr   net.Addr
	data   []byte // release with wire.PutFrame after consuming
}

type nasEvent struct {
	pdu []byte
	err error
}

// NewDevice creates a UE on the given host with the given SIM. The
// NAS/SIM state (SQN) persists across attaches, as in a real handset.
func NewDevice(host *simnet.Host, sim auth.SIM) (*Device, error) {
	nue, err := nas.NewUE(sim)
	if err != nil {
		return nil, err
	}
	return &Device{host: host, sim: sim, nue: nue}, nil
}

// IMSI reports the device identity.
func (d *Device) IMSI() string { return string(d.sim.IMSI) }

// Publication returns the open-SIM key publication for this device —
// what a dLTE user uploads to the registry (§4.2).
func (d *Device) Publication() auth.KeyPublication {
	return auth.KeyPublication{IMSI: d.sim.IMSI, K: d.sim.K, OPc: d.sim.OPc}
}

// Attached reports whether the device currently holds a registration.
func (d *Device) Attached() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.attached
}

// IP reports the current PDN address ("" when detached).
func (d *Device) IP() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.attached {
		return ""
	}
	return d.result.IP
}

// SignalingBytes reports the total NAS signaling payload bytes this
// device has exchanged over the air (both directions) since creation.
// Monotonic; meant for deltas around an attach or handover.
func (d *Device) SignalingBytes() uint64 { return d.sigTx.Load() + d.sigRx.Load() }

// HandoverResult reports a completed roam to a new AP.
type HandoverResult struct {
	AttachResult
	// Interruption is the measured service gap: from the break with
	// the old AP (dLTE roaming is break-before-make) to registration
	// complete at the new one.
	Interruption time.Duration
	// SignalingBytes is the NAS signaling spent on the re-attach.
	SignalingBytes uint64
}

// Handover roams the device to the AP at airAddr, measuring the
// interruption window and the signaling the re-attach cost — the
// UE-side half of the mobility plane's measurement seam (the AP-side
// half, X2 choreography bytes, is metered by mobility.Plane).
func (d *Device) Handover(airAddr string, timeout time.Duration) (HandoverResult, error) {
	clk := d.host.Clock()
	sigBefore := d.SignalingBytes()
	start := clk.Now()
	res, err := d.Attach(airAddr, timeout)
	if err != nil {
		return HandoverResult{}, err
	}
	return HandoverResult{
		AttachResult:   res,
		Interruption:   clk.Since(start),
		SignalingBytes: d.SignalingBytes() - sigBefore,
	}, nil
}

// Attach connects to the AP at airAddr and runs the full registration
// handshake, returning the result with measured latency. Any previous
// association is dropped first (dLTE roaming is break-before-make).
func (d *Device) Attach(airAddr string, timeout time.Duration) (AttachResult, error) {
	d.dropConnLocked()

	clk := d.host.Clock()
	start := clk.Now()
	raw, err := d.host.Dial(airAddr)
	if err != nil {
		return AttachResult{}, fmt.Errorf("ue: air dial: %w", err)
	}
	air := wire.NewFrameConn(raw)

	nasEvents := make(chan nasEvent, 16)
	sysInfo := make(chan enb.SystemInfo, 1)
	d.mu.Lock()
	d.raw = raw
	d.air = air
	d.rx = make(chan rxPacket, 256)
	d.nasEvents = nasEvents
	d.sysInfo = sysInfo
	d.mu.Unlock()

	if sc, ok := raw.(*simnet.Conn); ok {
		// Run-to-completion downlink: air frames reassemble and dispatch
		// inline on the network dispatcher; no reader goroutine per UE.
		d.installAir(sc)
	} else {
		d.readerWG.Add(1)
		clk.Go(func() { d.readLoop(raw, air) })
	}

	deadline := clk.NewTimer(timeout)
	defer deadline.Stop()

	// Cell search: wait for the broadcast system information to learn
	// the serving network identity before attaching.
	var si enb.SystemInfo
	for got := false; !got; {
		seq := d.nasBell.Seq()
		select {
		case si = <-sysInfo:
			got = true
			continue
		default:
		}
		if !d.nasBell.Wait(clk, seq, deadline) {
			d.dropConnLocked()
			return AttachResult{}, fmt.Errorf("%w: no system information", ErrTimeout)
		}
	}

	pdu, err := d.nue.StartAttach(si.SNID)
	if err != nil {
		return AttachResult{}, err
	}
	if err := d.sendAir(enb.AirNASUp, pdu); err != nil {
		return AttachResult{}, err
	}

	for {
		ev, ok := d.nextNASEvent(clk, nasEvents, deadline)
		if !ok {
			d.dropConnLocked()
			return AttachResult{}, fmt.Errorf("%w: attach after %v", ErrTimeout, timeout)
		}
		if ev.err != nil {
			return AttachResult{}, ev.err
		}
		buf := wire.GetFrame()
		reply, done, err := d.nue.HandleAppend(ev.pdu, buf)
		wire.PutFrame(ev.pdu)
		if err != nil {
			wire.PutFrame(buf)
			return AttachResult{}, err
		}
		if len(reply) > 0 {
			if err := d.sendAir(enb.AirNASUp, reply); err != nil {
				wire.PutFrame(buf)
				return AttachResult{}, err
			}
		}
		wire.PutFrame(buf)
		if done {
			res := AttachResult{
				IP:             d.nue.IPAddress,
				GUTI:           d.nue.GUTI,
				DirectBreakout: d.nue.Breakout,
				Duration:       clk.Since(start),
			}
			d.mu.Lock()
			d.attached = true
			d.result = res
			d.mu.Unlock()
			return res, nil
		}
	}
}

// Detach runs the detach handshake and drops the radio connection.
func (d *Device) Detach(timeout time.Duration) error {
	d.mu.Lock()
	attached := d.attached
	d.mu.Unlock()
	if !attached {
		return ErrNotAttached
	}
	pdu, err := d.nue.StartDetach()
	if err != nil {
		return err
	}
	if err := d.sendAir(enb.AirNASUp, pdu); err != nil {
		return err
	}
	clk := d.host.Clock()
	d.mu.Lock()
	nasEvents := d.nasEvents
	d.mu.Unlock()
	deadline := clk.NewTimer(timeout)
	defer deadline.Stop()
	for {
		ev, ok := d.nextNASEvent(clk, nasEvents, deadline)
		if !ok {
			return fmt.Errorf("%w: detach after %v", ErrTimeout, timeout)
		}
		if ev.err != nil {
			return ev.err
		}
		_, done, err := d.nue.Handle(ev.pdu)
		wire.PutFrame(ev.pdu)
		if err != nil {
			return err
		}
		if done {
			d.dropConnLocked()
			return nil
		}
	}
}

// nextNASEvent waits for the next queued NAS event, reporting false if
// the deadline fires first.
func (d *Device) nextNASEvent(clk simnet.Clock, events chan nasEvent, deadline *simnet.Timer) (nasEvent, bool) {
	for {
		seq := d.nasBell.Seq()
		select {
		case ev := <-events:
			return ev, true
		default:
		}
		if !d.nasBell.Wait(clk, seq, deadline) {
			return nasEvent{}, false
		}
	}
}

// Send transmits an uplink user packet to remote ("host:port"). The
// air frame and the user packet inside it are assembled in one pooled
// buffer — air header first, user framing appended behind it, inner
// length patched in — so the per-packet path allocates nothing.
func (d *Device) Send(remote string, payload []byte) error {
	d.mu.Lock()
	attached := d.attached
	air := d.air
	d.mu.Unlock()
	if !attached || air == nil {
		return ErrNotAttached
	}
	frame := append(wire.GetFrame(), uint8(enb.AirDataUp), 0, 0)
	frame, err := epc.AppendUserPacket(frame, remote, payload)
	if err != nil {
		wire.PutFrame(frame)
		return err
	}
	inner := len(frame) - 3
	if inner > 0xFFFF {
		wire.PutFrame(frame)
		return fmt.Errorf("ue: user packet length %d overflows air frame", inner)
	}
	frame[1], frame[2] = byte(inner>>8), byte(inner)
	err = air.Send(frame)
	wire.PutFrame(frame)
	return err
}

// recvPacket dequeues the next downlink packet. The caller owns the
// packet's pooled buffer and must release it with wire.PutFrame.
func (d *Device) recvPacket(timeout time.Duration) (rxPacket, error) {
	d.mu.Lock()
	rx := d.rx
	d.mu.Unlock()
	if rx == nil {
		return rxPacket{}, ErrNotAttached
	}
	clk := d.host.Clock()
	var t *simnet.Timer
	for {
		seq := d.rxBell.Seq()
		select {
		case p, ok := <-rx:
			if !ok {
				return rxPacket{}, ErrDetachedMid
			}
			return p, nil
		default:
		}
		if t == nil {
			t = clk.NewTimer(timeout)
			defer t.Stop()
		}
		if !d.rxBell.Wait(clk, seq, t) {
			return rxPacket{}, fmt.Errorf("%w: recv after %v", ErrTimeout, timeout)
		}
	}
}

// Recv waits for the next downlink user packet. The returned packet is
// the caller's to keep, so the payload is copied out of the pooled
// receive buffer; loss-tolerant bulk readers wanting the alloc-free
// path use BearerConn.ReadFrom instead.
func (d *Device) Recv(timeout time.Duration) (epc.UserPacket, error) {
	p, err := d.recvPacket(timeout)
	if err != nil {
		return epc.UserPacket{}, err
	}
	out := epc.UserPacket{Remote: p.remote, Payload: append([]byte(nil), p.data...)}
	wire.PutFrame(p.data)
	return out, nil
}

// Echo sends payload to remote and waits for one downlink packet —
// the basic RTT probe the experiments use. Retries the send every
// retryEvery until timeout (covers the brief window before the data
// path is fully bound).
func (d *Device) Echo(remote string, payload []byte, retryEvery, timeout time.Duration) (time.Duration, error) {
	clk := d.host.Clock()
	start := clk.Now()
	deadline := start.Add(timeout)
	for {
		if err := d.Send(remote, payload); err != nil {
			return 0, err
		}
		wait := retryEvery
		if rem := clk.Until(deadline); rem < wait {
			wait = rem
		}
		if wait <= 0 {
			return 0, fmt.Errorf("%w: echo after %v", ErrTimeout, timeout)
		}
		if _, err := d.Recv(wait); err == nil {
			return clk.Since(start), nil
		}
		if clk.Now().After(deadline) {
			return 0, fmt.Errorf("%w: echo after %v", ErrTimeout, timeout)
		}
	}
}

func (d *Device) sendAir(t enb.AirMsgType, payload []byte) error {
	d.mu.Lock()
	air := d.air
	d.mu.Unlock()
	if air == nil {
		return ErrNotAttached
	}
	// Pooled assembly: Send's stream layer copies before returning.
	frame, err := enb.AppendAir(wire.GetFrame(), t, payload)
	if err == nil {
		err = air.Send(frame)
	}
	if err == nil && t == enb.AirNASUp {
		d.sigTx.Add(uint64(len(payload)))
	}
	wire.PutFrame(frame)
	return err
}

// airState is one association's downlink frame consumer: the memoized
// remote endpoint the old reader loop kept on its stack, shared by the
// dispatch handler and the legacy reader.
type airState struct {
	d   *Device
	raw net.Conn
	// Downlink packets from one peer share a memoized remote string and
	// boxed address, so steady-state delivery costs one pooled copy and
	// no allocation.
	lastRemote string
	lastAddr   net.Addr
	// asm reassembles the downlink stream in dispatch mode. Embedded
	// (and airState registered as the conn's StreamHandler) so an
	// attach allocates one state object, not a constellation of
	// assembler plus closures.
	asm wire.FrameAssembler
}

// onFrame adapts frame to the assembler's emit signature. Passed as a
// call-only method value, so it does not escape or allocate.
func (st *airState) onFrame(frame []byte) error {
	st.frame(frame)
	return nil
}

// HandleDeliver implements simnet.StreamHandler: reassemble the chunk
// and consume each completed downlink frame inline.
func (st *airState) HandleDeliver(data []byte) {
	if st.asm.Feed(data, st.onFrame) != nil {
		st.asm.Reset()
		st.raw.Close()
		st.d.connLost(st.raw)
	}
}

// HandleStreamClose implements simnet.StreamHandler: the eNodeB end
// closed the association.
func (st *airState) HandleStreamClose() {
	st.asm.Reset()
	st.d.connLost(st.raw)
}

// frame consumes one downlink air frame. frame is valid only for the
// duration of the call; anything queued (NAS PDUs, user packets) is
// copied into its own pooled buffer. Every queued item rings the
// consumer's doorbell, which hands a parked consumer its busy slot even
// when this runs inside a dispatch batch.
func (st *airState) frame(frame []byte) {
	d := st.d
	t, payload, err := enb.DecodeAirView(frame)
	if err != nil {
		return
	}
	switch t {
	case enb.AirBroadcast:
		if si, err := enb.DecodeSystemInfo(payload); err == nil {
			d.mu.Lock()
			ch := d.sysInfo
			d.mu.Unlock()
			select {
			case ch <- si:
				d.nasBell.Ring()
			default:
			}
		}
	case enb.AirNASDown:
		d.sigRx.Add(uint64(len(payload)))
		// The PDU is queued past this frame's release, so it travels
		// in its own pooled buffer; the NAS consumer releases it.
		pdu := append(wire.GetFrame(), payload...)
		d.mu.Lock()
		ch := d.nasEvents
		d.mu.Unlock()
		select {
		case ch <- nasEvent{pdu: pdu}:
			d.nasBell.Ring()
		default:
			wire.PutFrame(pdu)
		}
	case enb.AirDataDown:
		remote, data, err := epc.DecodeUserPacketView(payload)
		if err != nil {
			return
		}
		if string(remote) != st.lastRemote {
			st.lastRemote = string(remote)
			if a, err := simnet.ParseAddr(st.lastRemote); err == nil {
				st.lastAddr = a
			} else {
				st.lastAddr = simnet.Addr{Host: st.lastRemote}
			}
		}
		d.mu.Lock()
		ch := d.rx
		d.mu.Unlock()
		if ch != nil {
			buf := append(wire.GetFrame(), data...)
			select {
			case ch <- rxPacket{remote: st.lastRemote, addr: st.lastAddr, data: buf}:
				d.rxBell.Ring()
			default: // receiver not draining; drop like a full buffer
				wire.PutFrame(buf)
			}
		}
	case enb.AirRelease:
		st.raw.Close()
		d.connLost(st.raw)
	}
}

// connLost finishes an association teardown: if raw is still the
// current association, registration drops and the rx channel closes
// (waking blocked Recv callers). Idempotent.
func (d *Device) connLost(raw net.Conn) {
	d.mu.Lock()
	if d.raw == raw {
		d.attached = false
		if d.rx != nil {
			close(d.rx)
			d.rx = nil
		}
	}
	d.mu.Unlock()
	d.nasBell.Ring()
	d.rxBell.Ring()
}

// installAir attaches the run-to-completion downlink path to a simnet
// air connection: per-association frame reassembly feeding airState,
// teardown on peer close.
func (d *Device) installAir(sc *simnet.Conn) {
	sc.OnDeliverHandler(&airState{d: d, raw: sc})
}

func (d *Device) readLoop(raw net.Conn, air *wire.FrameConn) {
	defer d.readerWG.Done()
	st := &airState{d: d, raw: raw}
	for {
		frame, err := air.RecvOwned()
		if err != nil {
			d.connLost(raw)
			return
		}
		st.frame(frame)
		wire.PutFrame(frame)
	}
}

// dropConnLocked closes any existing radio connection and waits for
// its reader to finish.
func (d *Device) dropConnLocked() {
	d.mu.Lock()
	raw := d.raw
	d.raw = nil
	d.air = nil
	d.attached = false
	if d.rx != nil {
		// Leave channel to the reader's close path; just detach it.
		d.rx = nil
	}
	d.mu.Unlock()
	if raw != nil {
		raw.Close()
		d.readerWG.Wait(d.host.Clock())
	}
}

// Close releases the device.
func (d *Device) Close() { d.dropConnLocked() }

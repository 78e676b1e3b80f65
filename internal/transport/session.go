package transport

import (
	"errors"
	"net"
	"sort"
	"sync"
	"time"

	"dlte/internal/simnet"
)

// PacketConn is the datagram surface MST runs over (simnet.PacketConn
// or net.UDPConn).
type PacketConn interface {
	WriteTo(b []byte, addr net.Addr) (int, error)
	ReadFrom(b []byte) (int, net.Addr, error)
	SetReadDeadline(t time.Time) error
	Close() error
}

// handlerSetter is the optional run-to-completion surface of a
// PacketConn (simnet.PacketConn implements it): installing a delivery
// handler retires the endpoint's blocking reader goroutine, so each
// inbound datagram runs the protocol machine inline on the network
// dispatcher instead of waking a parked reader.
type handlerSetter interface {
	SetHandler(h func(data []byte, from net.Addr))
}

// Session errors.
var (
	ErrClosed      = errors.New("transport: session closed")
	ErrReset       = errors.New("transport: session reset by peer")
	ErrTimeout     = errors.New("transport: timeout")
	ErrNotAccepted = errors.New("transport: handshake incomplete")
)

// rto is the retransmission timeout for unacked data.
const rto = 60 * time.Millisecond

// maxWindow bounds unacknowledged packets in flight.
const maxWindow = 64

// session is the shared reliable engine used by both ends: sequenced
// sends with cumulative acks and RTO retransmission, in-order
// delivery, and a swappable (path-migratable) socket/peer.
type session struct {
	// clk governs all session timing (RTO, handshake timers, recv
	// timeouts). It is derived from the socket at creation: virtual
	// over simnet, wall over real UDP.
	clk simnet.Clock

	mu     sync.Mutex
	pc     PacketConn
	peer   net.Addr
	cid    uint64
	closed bool
	reset  bool

	// Send state. sendBell rings when window space frees or the
	// session ends.
	nextSeq  uint64
	sendBase uint64 // lowest unacked
	inflight map[uint64]*inflightPkt
	sendBell simnet.Bell

	// Receive state. recvBell rings when a payload is queued on
	// incoming or the session ends.
	expected uint64
	pending  map[uint64][]byte
	incoming chan []byte
	recvBell simnet.Bell

	// Stats.
	sent, retransmits, delivered uint64
}

type inflightPkt struct {
	payload []byte
	lastTx  time.Time
}

func newSession(pc PacketConn, peer net.Addr, cid uint64) *session {
	s := &session{
		clk:      simnet.ClockOf(pc),
		pc:       pc,
		peer:     peer,
		cid:      cid,
		inflight: make(map[uint64]*inflightPkt),
		pending:  make(map[uint64][]byte),
		incoming: make(chan []byte, 1024),
	}
	return s
}

// CID reports the session's connection ID.
func (s *session) CID() uint64 { return s.cid }

// send transmits one payload reliably.
func (s *session) send(payload []byte) error {
	s.mu.Lock()
	for !s.closed && !s.reset && len(s.inflight) >= maxWindow {
		seq := s.sendBell.Seq()
		s.mu.Unlock()
		s.sendBell.Wait(s.clk, seq, nil)
		s.mu.Lock()
	}
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.reset {
		s.mu.Unlock()
		return ErrReset
	}
	seq := s.nextSeq
	s.nextSeq++
	data := make([]byte, len(payload))
	copy(data, payload)
	s.inflight[seq] = &inflightPkt{payload: data, lastTx: s.clk.Now()}
	s.sent++
	pc, peer := s.pc, s.peer
	s.mu.Unlock()

	return s.writePacket(pc, peer, Packet{Type: PktData, CID: s.cid, Seq: seq})
}

func (s *session) writePacket(pc PacketConn, peer net.Addr, p Packet) error {
	if p.Type == PktData {
		s.mu.Lock()
		if pkt, ok := s.inflight[p.Seq]; ok {
			p.Payload = pkt.payload
		}
		p.Ack = s.expected
		s.mu.Unlock()
	}
	b, err := EncodePacket(p)
	if err != nil {
		return err
	}
	_, err = pc.WriteTo(b, peer)
	return err
}

// recv delivers the next in-order payload.
func (s *session) recv(timeout time.Duration) ([]byte, error) {
	var t *simnet.Timer
	for {
		seq := s.recvBell.Seq()
		select {
		case b, ok := <-s.incoming:
			return s.recvResult(b, ok)
		default:
		}
		if t == nil {
			t = s.clk.NewTimer(timeout)
			defer t.Stop()
		}
		if !s.recvBell.Wait(s.clk, seq, t) {
			return nil, ErrTimeout
		}
	}
}

func (s *session) recvResult(b []byte, ok bool) ([]byte, error) {
	if !ok {
		s.mu.Lock()
		reset := s.reset
		s.mu.Unlock()
		if reset {
			return nil, ErrReset
		}
		return nil, ErrClosed
	}
	return b, nil
}

// ingestData absorbs an inbound DATA packet: it applies the
// piggybacked ack and advances the in-order receive state, but wakes
// nobody. The caller puts the returned cumulative ack on the wire
// first and only then calls finishData — so any goroutine this packet
// unblocks (the app reading a payload, a sender freed by the ack)
// enqueues its response strictly after our ack. Keeping that wire
// order fixed is what makes same-seed runs byte-identical: waking the
// app before acking lets its reply race the ack for the link's
// serialization slot.
func (s *session) ingestData(p Packet) (ack uint64, deliver [][]byte, freed bool) {
	s.mu.Lock()
	freed = s.applyAckLocked(p.Ack)
	if p.Seq >= s.expected {
		if _, dup := s.pending[p.Seq]; !dup {
			data := make([]byte, len(p.Payload))
			copy(data, p.Payload)
			s.pending[p.Seq] = data
		}
	}
	for {
		d, ok := s.pending[s.expected]
		if !ok {
			break
		}
		delete(s.pending, s.expected)
		s.expected++
		deliver = append(deliver, d)
	}
	ack = s.expected
	s.delivered += uint64(len(deliver))
	s.mu.Unlock()
	return ack, deliver, freed
}

// finishData completes ingestData: payloads reach the receiver and
// window-blocked senders wake, after the ack is already on the wire.
func (s *session) finishData(deliver [][]byte, freed bool) {
	s.mu.Lock()
	// Deliver under the lock (sends are non-blocking) so a concurrent
	// close cannot close the channel mid-send.
	delivered := false
	if !s.closed && !s.reset {
		for _, d := range deliver {
			select {
			case s.incoming <- d:
				delivered = true
			default: // receiver not draining; drop like a full buffer
			}
		}
	}
	s.mu.Unlock()
	// Ring after the unlock: a woken goroutine goes straight for s.mu.
	if delivered {
		s.recvBell.Ring()
	}
	if freed {
		s.sendBell.Ring()
	}
}

// handleAck processes a cumulative acknowledgment.
func (s *session) handleAck(ack uint64) {
	s.mu.Lock()
	freed := s.applyAckLocked(ack)
	s.mu.Unlock()
	if freed {
		s.sendBell.Ring()
	}
}

// applyAckLocked discards acked inflight packets and reports whether
// window space was freed. The caller decides when to broadcast.
func (s *session) applyAckLocked(ack uint64) bool {
	freed := false
	for seq := range s.inflight {
		if seq < ack {
			delete(s.inflight, seq)
			freed = true
		}
	}
	if ack > s.sendBase {
		s.sendBase = ack
	}
	return freed
}

// retransmitTick resends any packet older than the RTO. Returns the
// number retransmitted.
func (s *session) retransmitTick() int {
	s.mu.Lock()
	if s.closed || s.reset {
		s.mu.Unlock()
		return 0
	}
	now := s.clk.Now()
	var stale []uint64
	for seq, pkt := range s.inflight {
		if now.Sub(pkt.lastTx) >= rto {
			pkt.lastTx = now
			stale = append(stale, seq)
		}
	}
	s.retransmits += uint64(len(stale))
	pc, peer := s.pc, s.peer
	s.mu.Unlock()

	// Resend in sequence order: inflight is a map, and letting Go's
	// randomized iteration order pick the wire order would make
	// same-seed runs diverge (link serialization and cumulative-ack
	// progression both depend on arrival order).
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, seq := range stale {
		s.writePacket(pc, peer, Packet{Type: PktData, CID: s.cid, Seq: seq})
	}
	return len(stale)
}

// migrate swaps the session onto a new socket/peer (client side) or
// re-binds the peer address (server side, on CID match).
func (s *session) migrate(pc PacketConn, peer net.Addr) {
	s.mu.Lock()
	if pc != nil {
		s.pc = pc
	}
	if peer != nil {
		s.peer = peer
	}
	s.mu.Unlock()
}

// peerAddr reports the current peer binding.
func (s *session) peerAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peer
}

// markReset flags the session as reset by the peer and wakes everyone.
func (s *session) markReset() {
	s.mu.Lock()
	if s.reset || s.closed {
		s.mu.Unlock()
		return
	}
	s.reset = true
	close(s.incoming)
	s.mu.Unlock()
	s.wakeAll()
}

// closeSession ends the session locally.
func (s *session) closeSession() {
	s.mu.Lock()
	if s.closed || s.reset {
		s.closed = true
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.incoming)
	s.mu.Unlock()
	s.wakeAll()
}

// wakeAll rings both doorbells: the session ended, so every parked
// sender and receiver must re-check.
func (s *session) wakeAll() {
	s.recvBell.Ring()
	s.sendBell.Ring()
}

// SessionStats reports transfer counters.
type SessionStats struct {
	Sent, Retransmits, Delivered uint64
}

func (s *session) stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{Sent: s.sent, Retransmits: s.retransmits, Delivered: s.delivered}
}

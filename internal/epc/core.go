package epc

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dlte/internal/auth"
	"dlte/internal/nas"
	"dlte/internal/s1ap"
	"dlte/internal/session"
	"dlte/internal/simnet"
	"dlte/internal/wire"
)

// S1APPort is where cores listen for eNodeB associations.
const S1APPort = 36412

// Config shapes a Core deployment.
type Config struct {
	// Name identifies the core (MME name in S1 setup).
	Name string
	// SNID is the serving-network identity bound into KASME.
	SNID string
	// TAC is the served tracking area.
	TAC uint16
	// DirectBreakout marks dLTE semantics in AttachAccept: traffic
	// exits at this core's host (which, for a stub, is the AP itself).
	DirectBreakout bool
	// OpenHSS makes the subscriber store accept published keys — the
	// dLTE open-core property.
	OpenHSS bool
	// ProcessingDelay models the core's per-signaling-message service
	// time; with one logical signaling processor this caps the core at
	// 1/ProcessingDelay messages per second, which is what saturates a
	// shared centralized EPC in experiment E3. Zero disables.
	ProcessingDelay time.Duration
	// SignalingProcessors models how many signaling messages the core
	// services in parallel when ProcessingDelay is set — the sharded-
	// MME experimental knob (an M/D/k queue in virtual time). 0 or 1
	// is the single processor of a classic MME.
	SignalingProcessors int
	// RequireENBAuthorization closes the core to organic expansion:
	// only eNodeB IDs registered via AuthorizeENB may associate — the
	// telecom/private-LTE property the paper contrasts with dLTE's
	// open registry (§2.1, Table 1).
	RequireENBAuthorization bool
	// Shards is the number of per-UE session shards, each owning its
	// slice of the session/GUTI tables and serving its signaling
	// messages one at a time in deterministic (virtual arrival time,
	// eNB conn ID) order. Shards partition real-CPU execution only —
	// under a virtual clock, runnable goroutines execute in parallel
	// while virtual time stands still — so control-plane throughput
	// scales across cores while simulated results are byte-identical
	// at any value. 0 means one shard per CPU (capped at maxShards).
	Shards int
}

// maxShards caps the shard count: the GUTI layout reserves 16 bits
// for the owning shard and the MME UE ID layout 12, and beyond the
// CPU count extra shards only add memory.
const maxShards = 256

// gutiShardShift places the owning shard in a GUTI's top 16 bits, so
// any GUTI (including a foreign one carried in a roaming TAU) routes
// to exactly one shard without a global table.
const gutiShardShift = 48

// mmeShardShift places the owning shard in an MME UE ID's top bits.
const mmeShardShift = 20

// Stats are the core's cumulative signaling counters.
type Stats struct {
	// SignalingMessages counts S1AP messages processed.
	SignalingMessages uint64
	// Attaches counts completed registrations.
	Attaches uint64
	// Rejects counts refused or failed registrations.
	Rejects uint64
	// Detaches counts completed detaches.
	Detaches uint64
	// UserPlaneDrops aggregates the gateway's and GTP endpoint's
	// per-packet drop counters, so a run's silent-discard budget is
	// visible next to its signaling totals.
	UserPlaneDrops UserPlaneDrops
}

// UserPlaneDrops breaks down user-plane packet drops by cause.
type UserPlaneDrops struct {
	// Malformed counts packets failing GTP decode or user-packet
	// framing (including unparseable NAT remotes).
	Malformed uint64
	// UnknownTEID counts well-formed G-PDUs with no live tunnel.
	UnknownTEID uint64
	// UnboundDownlink counts Internet return traffic arriving before
	// the downlink path was bound.
	UnboundDownlink uint64
}

// Total sums all drop causes.
func (d UserPlaneDrops) Total() uint64 {
	return d.Malformed + d.UnknownTEID + d.UnboundDownlink
}

// Core is an EPC control+user plane: HSS, MME, and gateway. Deploy one
// per AP for dLTE stubs, or one shared instance for the centralized
// baseline.
//
// Per-UE state is partitioned across session shards keyed by IMSI (or
// GUTI owner, for TAU): each shard owns its sessions, GUTI map, and
// identity allocators, and serves at most one signaling message at a
// time, so shards scale signaling across cores without a core-wide
// lock while each UE's lifecycle stays single-writer.
type Core struct {
	cfg  Config
	host *simnet.Host
	hss  *auth.SubscriberDB
	gw   *Gateway

	shards []*sessShard
	proc   detGate // the modeled signaling processor(s)

	mu         sync.Mutex
	allowedENB map[uint32]bool

	sigMsgs  atomic.Uint64
	attaches atomic.Uint64
	rejects  atomic.Uint64
	detaches atomic.Uint64
}

// sessShard owns one partition of the per-UE control-plane state.
// The gate serializes signaling processing (so session fields other
// than the FSM and IMSI are single-writer); mu guards the tables and
// allocators, which release/handover paths read from other
// goroutines.
type sessShard struct {
	idx  int
	gate detGate

	mu       sync.Mutex
	nextMME  uint32
	nextGUTI uint64
	gutis    map[uint64]string     // GUTI → IMSI
	byIMSI   map[string]*ueSession // current session per registered IMSI
}

// NewCore creates a core whose gateway lives on host.
func NewCore(host *simnet.Host, cfg Config) (*Core, error) {
	if cfg.Name == "" {
		cfg.Name = "core-" + host.Name()
	}
	if cfg.SNID == "" {
		cfg.SNID = cfg.Name
	}
	gw, err := NewGateway(host)
	if err != nil {
		return nil, err
	}
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxShards {
		n = maxShards
	}
	hss := auth.NewSubscriberDB(cfg.OpenHSS)
	// SQN freshness must follow the simulation's clock, not the wall
	// clock: two cores challenging the same roaming SIM within one
	// *real* millisecond would otherwise race into AUTS resync.
	hss.Now = host.Clock().Now
	c := &Core{
		cfg:        cfg,
		host:       host,
		hss:        hss,
		gw:         gw,
		shards:     make([]*sessShard, n),
		allowedENB: make(map[uint32]bool),
	}
	c.proc.capacity = cfg.SignalingProcessors
	for i := range c.shards {
		c.shards[i] = &sessShard{
			idx:      i,
			nextGUTI: 0x100,
			gutis:    make(map[uint64]string),
			byIMSI:   make(map[string]*ueSession),
		}
	}
	return c, nil
}

// HSS exposes the subscriber store for provisioning.
func (c *Core) HSS() *auth.SubscriberDB { return c.hss }

// Gateway exposes the user-plane gateway.
func (c *Core) Gateway() *Gateway { return c.gw }

// Host reports the core's host name.
func (c *Core) Host() string { return c.host.Name() }

// Shards reports the resolved session shard count.
func (c *Core) Shards() int { return len(c.shards) }

// Provision adds a subscriber to the HSS.
func (c *Core) Provision(sim auth.SIM) error { return c.hss.Provision(sim) }

// errENBRefused aborts an unauthorized eNodeB association.
var errENBRefused = errors.New("epc: eNodeB not authorized")

// AuthorizeENB admits an eNodeB ID to a closed core (the operator's
// manual provisioning step dLTE eliminates).
func (c *Core) AuthorizeENB(id uint32) {
	c.mu.Lock()
	c.allowedENB[id] = true
	c.mu.Unlock()
}

// ImportPublishedKey admits an open-SIM publication (dLTE mode only;
// a closed core refuses, reproducing the paper's §2.1 moat).
func (c *Core) ImportPublishedKey(p auth.KeyPublication) error {
	return c.hss.ImportPublished(p.SIM())
}

// CompleteHandover finishes the source side of an X2 handover: the UE
// landed at a peer AP, so the local lifecycle ends (Attached →
// Detached via EvHandoverComplete) and its gateway session is torn
// down. Idempotent: a duplicate or late complete finds no session and
// only re-deletes the (already gone) user-plane state. A session still
// mid-attach falls back to EvRelease inside releaseSession, so a
// complete racing an attach can never strand the session. Handover
// bookkeeping (who prepared what, in-flight state) lives in
// internal/mobility, not here.
func (c *Core) CompleteHandover(imsi string) error {
	sh := c.shardFor(imsi)
	sh.mu.Lock()
	s := sh.byIMSI[imsi]
	sh.mu.Unlock()
	if s == nil {
		// No live control-plane session (it may already have been
		// released); make sure the user plane is gone regardless.
		c.gw.DeleteSession(imsi)
		return nil
	}
	_, err := s.nasSession.FSM().Fire(session.EvHandoverComplete)
	c.releaseSession(s)
	return err
}

// Stats snapshots the signaling counters.
func (c *Core) Stats() Stats {
	gd := c.gw.Drops()
	td := c.gw.TunnelDrops()
	return Stats{
		SignalingMessages: c.sigMsgs.Load(),
		Attaches:          c.attaches.Load(),
		Rejects:           c.rejects.Load(),
		Detaches:          c.detaches.Load(),
		UserPlaneDrops: UserPlaneDrops{
			Malformed:       uint64(td.Malformed.Value() + gd.MalformedUser.Value() + gd.BadRemote.Value()),
			UnknownTEID:     uint64(td.UnknownTEID.Value()),
			UnboundDownlink: uint64(gd.UnboundDownlink.Value()),
		},
	}
}

// Listener abstracts net.Listener / simnet.Listener for S1AP serving.
type Listener interface {
	Accept() (net.Conn, error)
	Close() error
}

// ServeS1AP accepts eNodeB associations until the listener closes.
// Run in a goroutine.
func (c *Core) ServeS1AP(l Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		simnet.ClockOf(conn).Go(func() { c.serveENB(conn) })
	}
}

// enbConn is one eNodeB association and its UE sessions. The map is
// touched only by the association's serving goroutine.
type enbConn struct {
	conn     *s1ap.Conn
	sessions map[uint32]*ueSession // ENBUEID → session
}

// ueSession is the EPC's handle on one UE. Lifecycle state lives in
// the NAS session's FSM; everything here but imsi is written only
// under the owning shard's gate. imsi (and the shard's byIMSI entry)
// is guarded by shard.mu because release and handover paths read it
// from other goroutines.
type ueSession struct {
	nasSession *nas.NetworkSession
	shard      *sessShard
	enbUEID    uint32
	mmeUEID    uint32
	imsi       string
	uplinkTEID uint32
	icsSent    bool
}

func (c *Core) serveENB(raw net.Conn) {
	if sc, ok := raw.(*simnet.Conn); ok {
		c.serveENBDispatch(sc)
		return
	}
	defer raw.Close()
	clk := simnet.ClockOf(raw)
	connID := raw.RemoteAddr().String()
	ec := &enbConn{conn: s1ap.NewConn(raw), sessions: make(map[uint32]*ueSession)}
	var v s1ap.MsgView
	for {
		// The frame is pooled and the view decoded in place; dispatch is
		// synchronous, so the buffer is released as soon as the message
		// (and any views into it, NAS PDU included) has been served.
		frame, err := ec.conn.RecvOwned()
		if err == nil {
			err = s1ap.DecodeView(frame, &v)
			if err != nil {
				wire.PutFrame(frame)
			}
		}
		if err != nil {
			// Association lost (or speaking garbage): tear down this
			// eNB's sessions.
			for _, s := range ec.sessions {
				c.releaseSession(s)
			}
			return
		}
		c.sigMsgs.Add(1)
		c.applyProcessingDelay(clk, connID)
		derr := c.dispatchS1AP(clk, ec, connID, &v)
		wire.PutFrame(frame)
		if errors.Is(derr, errENBRefused) {
			return // drop the association: closed core
		}
		// Per-UE errors are isolated; the association survives.
	}
}

// enbIngest is the run-to-completion ingest queue for one eNB
// association. The conn's delivery handler reassembles frames and
// queues pooled copies; the association's serving goroutine (the one
// ServeS1AP spawned) drains the queue through dispatchS1AP, which may
// sleep on admission gates and so cannot run inside a dispatch
// handler. One goroutine per eNB association — not per UE — keeps the
// pre-existing serialization (messages on one S1AP association are
// inherently serial) while the per-UE hot paths stay handler-driven.
type enbIngest struct {
	mu   sync.Mutex
	q    [][]byte // pooled frame copies, FIFO from head
	head int
	dead bool
	bell simnet.Bell // rung on every push and on close
}

// push queues a copy of frame (which is only valid during the
// handler's call) for the serving goroutine.
func (in *enbIngest) push(frame []byte) {
	buf := append(wire.GetFrame(), frame...)
	in.mu.Lock()
	in.q = append(in.q, buf)
	in.mu.Unlock()
	in.bell.Ring()
}

// close marks the association dead; queued frames (already fully
// received) are still served first, matching the blocking reader that
// drained buffered stream data before seeing the close.
func (in *enbIngest) close() {
	in.mu.Lock()
	in.dead = true
	in.mu.Unlock()
	in.bell.Ring()
}

// pop returns the next queued frame, parking through the clock until
// one arrives. ok=false means dead and drained.
func (in *enbIngest) pop(clk simnet.Clock) (frame []byte, ok bool) {
	for {
		seq := in.bell.Seq()
		in.mu.Lock()
		if in.head < len(in.q) {
			f := in.q[in.head]
			in.q[in.head] = nil
			in.head++
			if in.head == len(in.q) {
				in.q, in.head = in.q[:0], 0
			}
			in.mu.Unlock()
			return f, true
		}
		if in.dead {
			in.mu.Unlock()
			return nil, false
		}
		in.mu.Unlock()
		in.bell.Wait(clk, seq, nil)
	}
}

// drain recycles any frames still queued when the association is torn
// down mid-stream (decode error, refused eNB).
func (in *enbIngest) drain() {
	in.mu.Lock()
	for i := in.head; i < len(in.q); i++ {
		wire.PutFrame(in.q[i])
		in.q[i] = nil
	}
	in.q, in.head, in.dead = nil, 0, true
	in.mu.Unlock()
}

// serveENBDispatch serves one eNB association with run-to-completion
// ingest: frames reassemble inside the delivery handler and the
// serving goroutine wakes only when there is a message to process —
// no read-deadline polling, no per-read park/unpark.
func (c *Core) serveENBDispatch(sc *simnet.Conn) {
	clk := simnet.ClockOf(sc)
	connID := sc.RemoteAddr().String()
	in := &enbIngest{}
	asm := &wire.FrameAssembler{}
	sc.OnDeliver(func(data []byte) {
		if asm.Feed(data, func(frame []byte) error {
			in.push(frame)
			return nil
		}) != nil {
			asm.Reset()
			in.close()
		}
	}, func() {
		asm.Reset()
		in.close()
	})

	ec := &enbConn{conn: s1ap.NewConn(sc), sessions: make(map[uint32]*ueSession)}
	var v s1ap.MsgView
	for {
		frame, ok := in.pop(clk)
		if !ok {
			// Association lost: tear down this eNB's sessions.
			for _, s := range ec.sessions {
				c.releaseSession(s)
			}
			sc.Close()
			return
		}
		if err := s1ap.DecodeView(frame, &v); err != nil {
			wire.PutFrame(frame)
			for _, s := range ec.sessions {
				c.releaseSession(s)
			}
			sc.Close()
			in.drain()
			return
		}
		c.sigMsgs.Add(1)
		c.applyProcessingDelay(clk, connID)
		derr := c.dispatchS1AP(clk, ec, connID, &v)
		wire.PutFrame(frame)
		if errors.Is(derr, errENBRefused) {
			sc.Close()
			in.drain()
			return // drop the association: closed core
		}
		// Per-UE errors are isolated; the association survives.
	}
}

// applyProcessingDelay models the core's signaling processor(s): up
// to SignalingProcessors messages at a time, each taking
// ProcessingDelay. Under load, arrivals queue — the saturation
// behaviour of a shared EPC.
func (c *Core) applyProcessingDelay(clk simnet.Clock, connID string) {
	if c.cfg.ProcessingDelay <= 0 {
		return
	}
	c.proc.run(clk, connID, func() { clk.Sleep(c.cfg.ProcessingDelay) })
}

// shardFor maps an identity onto its owning shard (FNV-1a; no
// allocation — this runs per signaling message).
func (c *Core) shardFor(id string) *sessShard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// shardForBytes is shardFor over a byte view (same FNV-1a, so a given
// identity routes identically whether it arrives as string or view).
func (c *Core) shardForBytes(id []byte) *sessShard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// shardOfGUTI routes a GUTI to the shard that allocated it (or, for a
// foreign GUTI, to a deterministic shard that will not know it —
// yielding the standard TAU reject).
func (c *Core) shardOfGUTI(g uint64) *sessShard {
	return c.shards[(g>>gutiShardShift)%uint64(len(c.shards))]
}

// routeInitial peeks at the first NAS PDU of a new UE context to find
// the identity that keys the session's shard: the IMSI of an
// AttachRequest, the GUTI owner of a TAURequest. Undecodable or
// identity-free PDUs fall back to hashing the association, which is
// still deterministic.
func (c *Core) routeInitial(connID string, pdu []byte) *sessShard {
	var v nas.MsgView
	if err := nas.DecodeView(pdu, &v); err == nil {
		switch v.Type {
		case nas.TypeAttachRequest:
			return c.shardForBytes(v.IMSI)
		case nas.TypeTAURequest:
			return c.shardOfGUTI(v.GUTI)
		}
	}
	return c.shardFor(connID)
}

// runSharded executes fn under the shard's serving gate: one message
// per shard at a time, admitted in deterministic (virtual arrival
// time, eNB conn ID) order.
func (c *Core) runSharded(clk simnet.Clock, sh *sessShard, actor string, fn func() error) error {
	var err error
	sh.gate.run(clk, actor, func() { err = fn() })
	return err
}

// dispatchS1AP resolves a decoded message view to its session's shard
// and serves it there. Association-level messages (S1 setup) touch no
// per-UE state and bypass the shards. Views in v alias the pooled
// receive frame; everything here runs synchronously under it.
func (c *Core) dispatchS1AP(clk simnet.Clock, ec *enbConn, connID string, v *s1ap.MsgView) error {
	switch v.Type {
	case s1ap.TypeS1SetupRequest:
		if c.cfg.RequireENBAuthorization {
			c.mu.Lock()
			allowed := c.allowedENB[v.ENBID]
			c.mu.Unlock()
			if !allowed {
				// Closed core: the association is refused outright —
				// an unauthorized AP cannot extend this network.
				return errENBRefused
			}
		}
		return ec.conn.Send(&s1ap.S1SetupResponse{MMEName: c.cfg.Name, ServedTAC: c.cfg.TAC, SNID: c.cfg.SNID})

	case s1ap.TypeInitialUEMessage:
		sh := c.routeInitial(connID, v.NASPDU)
		return c.runSharded(clk, sh, connID, func() error {
			s := c.newUESession(sh, v.ENBUEID)
			ec.sessions[v.ENBUEID] = s
			return c.feedNAS(ec, s, v.NASPDU)
		})

	case s1ap.TypeUplinkNASTransport:
		s, ok := ec.sessions[v.ENBUEID]
		if !ok {
			return fmt.Errorf("epc: no session for eNB UE %d", v.ENBUEID)
		}
		return c.runSharded(clk, s.shard, connID, func() error {
			return c.feedNAS(ec, s, v.NASPDU)
		})

	case s1ap.TypeInitialContextSetupResponse:
		s, ok := ec.sessions[v.ENBUEID]
		if !ok {
			return fmt.Errorf("epc: no session for eNB UE %d", v.ENBUEID)
		}
		return c.runSharded(clk, s.shard, connID, func() error {
			addr, err := simnet.ParseAddr(string(v.ENBAddr))
			if err != nil {
				return err
			}
			return c.gw.BindDownlink(s.imsi, addr, v.ENBTEID)
		})

	case s1ap.TypePathSwitchRequest:
		// Locate the session by MME UE ID across this association.
		var s *ueSession
		for _, cand := range ec.sessions {
			if cand.mmeUEID == v.MMEUEID {
				s = cand
				break
			}
		}
		if s == nil {
			return fmt.Errorf("epc: path switch for unknown MME UE %d", v.MMEUEID)
		}
		return c.runSharded(clk, s.shard, connID, func() error {
			if _, err := s.nasSession.FSM().Fire(session.EvPathSwitch); err != nil {
				return err
			}
			addr, err := simnet.ParseAddr(string(v.NewENBAddr))
			if err != nil {
				return err
			}
			if err := c.gw.SwitchPath(s.imsi, addr, v.NewENBTEID); err != nil {
				return err
			}
			return ec.conn.Send(&s1ap.PathSwitchAck{MMEUEID: v.MMEUEID})
		})

	case s1ap.TypeUEContextReleaseRequest:
		// eNB-initiated release (radio loss): end the lifecycle, then
		// complete the standard command/complete exchange.
		if s, ok := ec.sessions[v.ENBUEID]; ok {
			c.runSharded(clk, s.shard, connID, func() error {
				c.releaseSession(s)
				return nil
			})
			delete(ec.sessions, v.ENBUEID)
		}
		return ec.conn.Send(&s1ap.UEContextReleaseCommand{ENBUEID: v.ENBUEID, MMEUEID: v.MMEUEID})

	case s1ap.TypeUEContextReleaseComplete:
		if s, ok := ec.sessions[v.ENBUEID]; ok {
			c.runSharded(clk, s.shard, connID, func() error {
				c.releaseSession(s)
				return nil
			})
			delete(ec.sessions, v.ENBUEID)
		}
		return nil

	default:
		return fmt.Errorf("epc: unhandled S1AP %s", v.Type)
	}
}

// newUESession builds a session owned by shard sh. Identities embed
// the shard index (GUTI top bits, MME UE ID top bits) so later
// messages route back to the owner without a global table.
func (c *Core) newUESession(sh *sessShard, enbUEID uint32) *ueSession {
	sh.mu.Lock()
	sh.nextMME++
	mmeUEID := uint32(sh.idx)<<mmeShardShift | sh.nextMME
	sh.mu.Unlock()

	s := &ueSession{shard: sh, enbUEID: enbUEID, mmeUEID: mmeUEID}
	s.nasSession = nas.NewNetworkSession(nas.NetworkConfig{
		HSS:              c.hss,
		ServingNetworkID: c.cfg.SNID,
		TrackingArea:     c.cfg.TAC,
		DirectBreakout:   c.cfg.DirectBreakout,
		AllocateIP: func(imsi string) (string, error) {
			// The UE passed authentication: it becomes the canonical
			// session for its IMSI (superseding any stale one).
			sh.mu.Lock()
			s.imsi = imsi
			sh.byIMSI[imsi] = s
			sh.mu.Unlock()
			ip, teid, err := c.gw.CreateSession(imsi)
			if err != nil {
				return "", err
			}
			s.uplinkTEID = teid
			return ip, nil
		},
		AllocateGUTI: func() uint64 {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			sh.nextGUTI++
			return uint64(sh.idx)<<gutiShardShift | uint64(c.cfg.TAC)<<32 | sh.nextGUTI
		},
		KnownGUTI: func(g uint64) bool {
			own := c.shardOfGUTI(g)
			own.mu.Lock()
			defer own.mu.Unlock()
			_, ok := own.gutis[g]
			return ok
		},
	})
	return s
}

// feedNAS pushes an uplink NAS PDU into the session's protocol
// handler (which drives the lifecycle FSM) and relays any reply /
// context-setup downlink. Runs under the owning shard's gate.
//
// The downlink path is single-buffer: the S1AP transport header goes
// into a pooled frame first, the NAS handler appends its reply (NAS
// inner message, sealing envelope and all) directly after it, and the
// patched frame ships as-is — no per-message reply allocations.
func (c *Core) feedNAS(ec *enbConn, s *ueSession, pdu []byte) error {
	frame := wire.GetFrame()
	hdr, mark := s1ap.StartDownlinkNASTransport(frame, s.enbUEID, s.mmeUEID)
	out, ev, nasErr := s.nasSession.HandleAppend(pdu, hdr)

	// Activate the data path as soon as the session reaches Attaching,
	// before the NAS AttachAccept goes out (mirroring real S1AP, where
	// the InitialContextSetupRequest carries the accept): the eNodeB's
	// tunnels are live by the time the UE confirms.
	if !s.icsSent && s.nasSession.State() == session.Attaching && s.uplinkTEID != 0 {
		s.icsSent = true
		if err := ec.conn.Send(&s1ap.InitialContextSetupRequest{
			ENBUEID: s.enbUEID,
			MMEUEID: s.mmeUEID,
			SGWAddr: c.gw.GTPAddr(),
			SGWTEID: s.uplinkTEID,
			UEAddr:  s.nasSession.IP(),
		}); err != nil {
			wire.PutFrame(frame)
			return err
		}
	}

	switch ev.Kind {
	case nas.EventRegistered:
		c.attaches.Add(1)
		sh := s.shard
		sh.mu.Lock()
		sh.gutis[ev.GUTI] = ev.IMSI
		sh.mu.Unlock()
	case nas.EventDetached:
		c.detaches.Add(1)
		// The GUTI is UE-echoed: route the unmap to whichever shard
		// owns that value (a garbage GUTI unmaps nothing).
		own := c.shardOfGUTI(ev.GUTI)
		own.mu.Lock()
		delete(own.gutis, ev.GUTI)
		own.mu.Unlock()
		defer c.releaseSession(s)
	case nas.EventRejected, nas.EventAuthFailed:
		c.rejects.Add(1)
	}

	if len(out) > mark {
		out, ferr := s1ap.FinishNASTransport(out, mark)
		if ferr == nil {
			ferr = ec.conn.SendFrame(out)
		}
		if ferr != nil {
			wire.PutFrame(frame)
			return ferr
		}
	}
	wire.PutFrame(frame)
	// NAS-level failures (bad MAC, replay, illegal lifecycle
	// transitions) are per-UE; surface them without killing the
	// association.
	return nasErr
}

// releaseSession ends a session's lifecycle (EvRelease is legal from
// every state) and tears down its user plane — but only if it is
// still the canonical session for its IMSI: a stale, superseded
// session releasing late must not destroy its successor's gateway
// session.
func (c *Core) releaseSession(s *ueSession) {
	s.nasSession.FSM().Fire(session.EvRelease)
	sh := s.shard
	sh.mu.Lock()
	imsi := s.imsi
	owner := imsi != "" && sh.byIMSI[imsi] == s
	if owner {
		delete(sh.byIMSI, imsi)
	}
	sh.mu.Unlock()
	if owner {
		c.gw.DeleteSession(imsi)
	}
}

// Close tears down the gateway (S1AP listeners are owned by callers).
func (c *Core) Close() { c.gw.Close() }

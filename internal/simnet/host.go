package simnet

import (
	"fmt"
	"net"
	"sync"
)

// Host is a named endpoint in a Network. A host can listen for stream
// connections, dial other hosts, and open packet sockets. Hosts model
// the machines of the dLTE world: access points, the registry, OTT
// servers, a centralized EPC, and user equipment.
type Host struct {
	net  *Network
	name string

	mu        sync.Mutex
	listeners map[int]*Listener
	pktConns  map[int]*PacketConn
	ephemeral int
	closed    bool
}

// Name reports the host's network-unique name (its address).
func (h *Host) Name() string { return h.name }

// Network returns the Network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// Clock returns the clock governing the host's network.
func (h *Host) Clock() Clock { return h.net.clock }

func (h *Host) allocEphemeralLocked() int {
	for {
		h.ephemeral++
		if h.ephemeral > 65535 {
			h.ephemeral = 49152
		}
		p := h.ephemeral
		if _, used := h.listeners[p]; used {
			continue
		}
		if _, used := h.pktConns[p]; used {
			continue
		}
		return p
	}
}

// Listen opens a stream listener on the given port (0 allocates an
// ephemeral port).
func (h *Host) Listen(port int) (*Listener, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if port == 0 {
		port = h.allocEphemeralLocked()
	}
	if _, used := h.listeners[port]; used {
		return nil, fmt.Errorf("%w: %s:%d", ErrPortInUse, h.name, port)
	}
	l := &Listener{
		host: h,
		addr: Addr{Host: h.name, Port: port},
	}
	h.listeners[port] = l
	return l, nil
}

// Dial opens a stream connection to addr ("host:port"). The connection
// is usable immediately on the dialer side; the SYN-equivalent delivery
// to the listener incurs one link latency, and data queued before the
// accept is preserved (as with a real TCP accept queue).
func (h *Host) Dial(addr string) (net.Conn, error) {
	a, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	h.net.mu.Lock()
	remote, ok := h.net.hosts[a.Host]
	h.net.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoHost, a.Host)
	}
	remote.mu.Lock()
	l, ok := remote.listeners[a.Port]
	remote.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	if !h.net.linkUp(h.name, a.Host) {
		return nil, fmt.Errorf("dial %s: %w", addr, ErrLinkDown)
	}

	h.mu.Lock()
	localPort := h.allocEphemeralLocked()
	h.mu.Unlock()

	local := Addr{Host: h.name, Port: localPort}
	cliConn, srvConn := newConnPair(h.net, local, a)
	h.net.addConn(cliConn)
	h.net.addConn(srvConn)

	delay, up := h.net.delayFor(h.name, a.Host, 64, false)
	if !up {
		return nil, fmt.Errorf("dial %s: %w", addr, ErrLinkDown)
	}
	clk := h.net.clock
	clk.Go(func() {
		if delay > 0 {
			clk.Sleep(delay)
		}
		if !l.push(srvConn) {
			cliConn.Close()
		}
	})
	return cliConn, nil
}

// ListenPacket opens a datagram socket on the given port (0 allocates
// an ephemeral port).
func (h *Host) ListenPacket(port int) (*PacketConn, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if port == 0 {
		port = h.allocEphemeralLocked()
	}
	if _, used := h.pktConns[port]; used {
		return nil, fmt.Errorf("%w: %s:%d (udp)", ErrPortInUse, h.name, port)
	}
	// The inbox channel is allocated lazily on first blocking read;
	// handler-mode sockets never pay for it.
	pc := &PacketConn{
		host: h,
		addr: Addr{Host: h.name, Port: port},
		done: make(chan struct{}),
	}
	pc.boxedSrc = pc.addr
	h.pktConns[port] = pc
	return pc, nil
}

func (h *Host) removeListener(port int) {
	h.mu.Lock()
	delete(h.listeners, port)
	h.mu.Unlock()
}

func (h *Host) removePacketConn(port int) {
	h.mu.Lock()
	delete(h.pktConns, port)
	h.mu.Unlock()
}

func (h *Host) closeAll() {
	h.mu.Lock()
	h.closed = true
	ls := make([]*Listener, 0, len(h.listeners))
	for _, l := range h.listeners {
		ls = append(ls, l)
	}
	ps := make([]*PacketConn, 0, len(h.pktConns))
	for _, p := range h.pktConns {
		ps = append(ps, p)
	}
	h.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, p := range ps {
		p.Close()
	}
}

// Listener accepts stream connections on a host port.
type Listener struct {
	host *Host
	addr Addr

	mu      sync.Mutex
	backlog []*Conn // arrived, not yet accepted, in arrival order from head
	head    int
	closed  bool
	bell    Bell // rings on every arrival and on Close
}

// push queues an arrived connection, reporting false if the listener
// is closed.
func (l *Listener) push(c *Conn) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	l.backlog = append(l.backlog, c)
	l.mu.Unlock()
	l.bell.Ring()
	return true
}

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	clk := l.host.net.clock
	for {
		seq := l.bell.Seq()
		l.mu.Lock()
		if l.head < len(l.backlog) {
			c := l.backlog[l.head]
			l.backlog[l.head] = nil
			l.head++
			if l.head == len(l.backlog) {
				l.backlog, l.head = l.backlog[:0], 0
			}
			l.mu.Unlock()
			return c, nil
		}
		closed := l.closed
		l.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		l.bell.Wait(clk, seq, nil)
	}
}

// Clock returns the clock governing the listener's network.
func (l *Listener) Clock() Clock { return l.host.net.clock }

// Addr reports the listening address.
func (l *Listener) Addr() net.Addr { return l.addr }

// Close stops the listener. Established connections are unaffected;
// dials still in flight are refused.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.backlog, l.head = nil, 0
	l.mu.Unlock()
	l.host.removeListener(l.addr.Port)
	l.bell.Ring()
	return nil
}

package shard

// process.go is the one way to boot a member of the sharded service: its
// mesh endpoint toward the shard's peers, the keyed store on a
// cluster.KeyedNode event loop, optional stable storage, and the
// client-protocol server. cmd/regnode runs one Process; LocalCluster is a
// grid of them.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"twobitreg/internal/cluster"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/storage"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
)

// ProcessConfig places one process in the topology.
type ProcessConfig struct {
	// Shard is this process's shard, of Shards.
	Shard, Shards int
	// ID is this process's index in its shard. Peers is the shard's mesh
	// address table; Peers[ID] is the address this process listens on.
	ID    int
	Peers []string
	// Client is the client-protocol listen address.
	Client string
	// Storage, if non-nil, is the process's stable storage: the keyed
	// store logs through it, and a revived process replays it.
	Storage storage.StableStorage
	// Mesh options pass through to the mesh endpoint.
	Mesh []transport.MeshOption
}

// Process is one running member of one shard's quorum group. The keyed
// store is wired as regbench/stack.go wires it: every shard member may
// write every key, keyed frames coalesce per mailbox burst, and the mesh
// speaks wire.Codec.
type Process struct {
	cfg ProcessConfig
	// gate sequences (re)boots against inbound deliveries and client
	// operations: while a boot holds it exclusively, they wait, and then
	// first see the node the boot installed. LocalCluster shares one gate
	// across its processes for the revival choreography.
	gate *sync.RWMutex

	// The slots are atomic because Kill nils them while deliveries and
	// client sessions may be reading: a nil slot is a crashed process.
	node atomic.Pointer[cluster.KeyedNode]
	mesh atomic.Pointer[transport.Mesh]
	srv  atomic.Pointer[Server]

	// meshAddr and clientAddr are the addresses the first boot bound; a
	// revival rebinds the same ones.
	meshAddr, clientAddr string
	sendErrs             atomic.Int64
}

// StartProcess boots one process: it listens on its mesh address, wires
// its peers, starts the keyed store's event loop and serves the client
// protocol. Peers may already be running and sending: their frames wait
// until the node is up. Callers must Kill the process.
func StartProcess(cfg ProcessConfig) (*Process, error) {
	if cfg.ID < 0 || cfg.ID >= len(cfg.Peers) {
		return nil, fmt.Errorf("shard: process %d out of range for %d peers", cfg.ID, len(cfg.Peers))
	}
	p := &Process{cfg: cfg, gate: new(sync.RWMutex)}
	st, err := p.newStore(false)
	if err == nil {
		p.gate.Lock()
		if err = p.listen(cfg.Peers[cfg.ID]); err == nil {
			err = p.start(st)
		}
		p.gate.Unlock()
	}
	if err == nil {
		err = p.serve(cfg.Client)
	}
	if err != nil {
		p.Kill()
		return nil, err
	}
	return p, nil
}

// newStore builds the process's keyed store. With storage, a fresh store
// logs through it, and with replay it first recovers from it.
func (p *Process) newStore(replay bool) (*regmap.Node, error) {
	writers := make([]int, len(p.cfg.Peers))
	for i := range writers {
		writers[i] = i
	}
	st, err := regmap.NewNode(p.cfg.ID, regmap.Config{N: len(writers), DefaultWriters: writers, Coalesce: true})
	if err != nil || p.cfg.Storage == nil {
		return st, err
	}
	if !st.RecoveryEnabled() {
		return nil, errors.New("shard: the keyed store is not recoverable; stable storage needs a durable configuration")
	}
	if replay {
		return st, st.Recover(p.cfg.Storage)
	}
	st.AttachStorage(p.cfg.Storage)
	return st, nil
}

// listen binds the mesh endpoint at addr. Inbound frames go through the
// gate to the current node.
func (p *Process) listen(addr string) error {
	m, err := transport.NewMesh(p.cfg.ID, len(p.cfg.Peers), addr, wire.Codec{}, p.deliver, p.cfg.Mesh...)
	if err != nil {
		return err
	}
	p.mesh.Store(m)
	if p.meshAddr == "" {
		p.meshAddr = m.Addr()
	}
	return nil
}

// start wires the mesh's peer table and runs st on a new event loop that
// sends through this incarnation's mesh.
func (p *Process) start(st *regmap.Node) error {
	m := p.mesh.Load()
	if err := m.SetPeers(p.cfg.Peers); err != nil {
		return err
	}
	p.node.Store(cluster.NewKeyedNode(p.cfg.ID, st, func(to int, msg proto.Message) {
		if m.Send(to, msg) != nil {
			p.sendErrs.Add(1)
		}
	}))
	return nil
}

// serve starts the client-protocol server at addr.
func (p *Process) serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("client listener: %w", err)
	}
	srv, err := Serve(ln, p.cfg.Shard, p.cfg.Shards, p.handle)
	if err != nil {
		ln.Close()
		return err
	}
	p.srv.Store(srv)
	if p.clientAddr == "" {
		p.clientAddr = srv.Addr()
	}
	return nil
}

// current returns the live node, nil while the process is down, waiting
// out a boot in progress.
func (p *Process) current() *cluster.KeyedNode {
	p.gate.RLock()
	defer p.gate.RUnlock()
	return p.node.Load()
}

func (p *Process) deliver(from int, msg proto.Message) {
	if nd := p.current(); nd != nil {
		nd.Deliver(from, msg)
	}
}

// handle serves the client port: requests against a crashed process, or
// one that dies under the request, answer StatusUnavailable so the client
// fails over to a live shard member.
func (p *Process) handle(op wire.ClientOp, key string, val []byte) ([]byte, error) {
	nd := p.current()
	if nd == nil {
		return nil, ErrUnavailable
	}
	v, err := do(nd, op, key, val)
	if errors.Is(err, cluster.ErrStopped) {
		return nil, ErrUnavailable
	}
	return v, err
}

// Kill crashes the process. The node stops first, failing its in-flight
// operations, so the server's drain cannot wait on a quorum round that
// will never finish; then the client server and the mesh close. Peers keep
// retrying its mesh address; clients dialing its client port are refused
// and fail over. Kill is idempotent.
func (p *Process) Kill() {
	if nd := p.node.Swap(nil); nd != nil {
		nd.Stop()
	}
	if srv := p.srv.Swap(nil); srv != nil {
		srv.Close()
	}
	if m := p.mesh.Swap(nil); m != nil {
		m.Close()
	}
}

// Node returns the process's event loop, nil if killed.
func (p *Process) Node() *cluster.KeyedNode { return p.node.Load() }

// Server returns the process's client server, nil if killed.
func (p *Process) Server() *Server { return p.srv.Load() }

// MeshAddr returns the bound mesh address.
func (p *Process) MeshAddr() string { return p.meshAddr }

// ClientAddr returns the bound client-protocol address.
func (p *Process) ClientAddr() string { return p.clientAddr }

// SendErrs counts the frames the mesh refused (Mesh.Send errors).
func (p *Process) SendErrs() int64 { return p.sendErrs.Load() }

// MeshStats returns the live mesh's counters, zero if killed.
func (p *Process) MeshStats() transport.MeshStats {
	if m := p.mesh.Load(); m != nil {
		return m.Stats()
	}
	return transport.MeshStats{}
}

// NodeHandler adapts a KeyedNode to the session server: gets and puts run
// through the node's event loop (and from there the shard's quorum).
func NodeHandler(nd *cluster.KeyedNode) Handler {
	return func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
		return do(nd, op, key, val)
	}
}

func do(nd *cluster.KeyedNode, op wire.ClientOp, key string, val []byte) ([]byte, error) {
	if op == wire.ClientGet {
		return nd.Get(key)
	}
	return nil, nd.Put(key, val)
}

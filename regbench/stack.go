package main

// stack.go is the one place the benchmark builds the service: every call to
// the production constructors (transport.NewMesh, regmap.NewNode,
// cluster.NewKeyedNode, shard.Serve, storage.OpenFileWAL, regclient.New)
// lives here. The measurement taps enter only through the seams those
// constructors already take, so an untraced stack is byte-for-byte the
// wiring cmd/regnode and shard.LocalCluster use.

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"

	"twobitreg/internal/cluster"
	"twobitreg/internal/proto"
	"twobitreg/internal/regclient"
	"twobitreg/internal/regmap"
	"twobitreg/internal/shard"
	"twobitreg/internal/storage"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
)

// taps are the optional wrappers installed at the stack's seams, one call
// per process (pid is the flat process index, shard*procs+member). A nil
// field leaves that seam unwrapped.
type taps struct {
	proc    func(pid int, nd *regmap.Node) cluster.KeyedProcess
	send    func(pid int, send func(to int, msg proto.Message)) func(to int, msg proto.Message)
	deliver func(pid int, deliver func(from int, msg proto.Message)) func(from int, msg proto.Message)
	store   func(pid int, wal *storage.FileWAL) storage.StableStorage
	handler func(pid int, h shard.Handler) shard.Handler
}

// stack is a booted sharded service: shards × procs processes on loopback
// TCP, each a mesh endpoint, a regmap store on a KeyedNode event loop, an
// optional FileWAL and a client-protocol server, plus the routing clients
// the load generator drives.
type stack struct {
	meshes   []*transport.Mesh
	nodes    []atomic.Pointer[cluster.KeyedNode]
	servers  []*shard.Server
	wals     []*storage.FileWAL
	clients  []*regclient.Client
	sendErrs atomic.Int64
}

// bootStack starts the service, with a FileWAL per process when durable
// (see openWAL); nclients routing clients are built, client c preferring
// shard member c. The caller must close the stack, also when bootStack
// fails part-way (close skips what is missing).
func bootStack(shards, procs int, durable bool, tp taps, nclients int) (*stack, error) {
	n := shards * procs
	st := &stack{
		meshes:  make([]*transport.Mesh, n),
		nodes:   make([]atomic.Pointer[cluster.KeyedNode], n),
		servers: make([]*shard.Server, n),
	}
	writers := make([]int, procs)
	for i := range writers {
		writers[i] = i
	}
	// Phase 1: bind every mesh listener, then wire each shard's peer table.
	// The deliver closure reads the node slot, filled before any client
	// operation makes a node send.
	addrs := make([]string, n)
	for pid := 0; pid < n; pid++ {
		pid := pid
		deliver := func(from int, msg proto.Message) {
			if nd := st.nodes[pid].Load(); nd != nil {
				nd.Deliver(from, msg)
			}
		}
		if tp.deliver != nil {
			deliver = tp.deliver(pid, deliver)
		}
		m, err := transport.NewMesh(pid%procs, procs, "127.0.0.1:0", wire.Codec{}, deliver)
		if err != nil {
			return st, fmt.Errorf("mesh %d: %w", pid, err)
		}
		st.meshes[pid] = m
		addrs[pid] = m.Addr()
	}
	for pid, m := range st.meshes {
		s := pid / procs
		if err := m.SetPeers(addrs[s*procs : (s+1)*procs]); err != nil {
			return st, fmt.Errorf("mesh %d peers: %w", pid, err)
		}
	}
	// Phase 2: the keyed stores.
	if durable {
		st.wals = make([]*storage.FileWAL, n)
	}
	for pid := 0; pid < n; pid++ {
		local := pid % procs
		nd, err := regmap.NewNode(local, regmap.Config{N: procs, DefaultWriters: writers, Coalesce: true})
		if err != nil {
			return st, err
		}
		if st.wals != nil {
			wal, err := openWAL(pid)
			if err != nil {
				return st, err
			}
			st.wals[pid] = wal
			var log storage.StableStorage = wal
			if tp.store != nil {
				log = tp.store(pid, wal)
			}
			nd.AttachStorage(log)
		}
		var proc cluster.KeyedProcess = nd
		if tp.proc != nil {
			proc = tp.proc(pid, nd)
		}
		mesh := st.meshes[pid]
		send := func(to int, msg proto.Message) {
			if mesh.Send(to, msg) != nil {
				st.sendErrs.Add(1)
			}
		}
		if tp.send != nil {
			send = tp.send(pid, send)
		}
		st.nodes[pid].Store(cluster.NewKeyedNode(local, proc, send))
	}
	// Phase 3: one client-protocol server per process.
	cfg := &shard.ClusterConfig{Shards: make([]shard.Shard, shards)}
	for pid := 0; pid < n; pid++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return st, fmt.Errorf("client listener %d: %w", pid, err)
		}
		h := shard.NodeHandler(st.nodes[pid].Load())
		if tp.handler != nil {
			h = tp.handler(pid, h)
		}
		srv, err := shard.Serve(ln, pid/procs, shards, h)
		if err != nil {
			ln.Close()
			return st, err
		}
		st.servers[pid] = srv
		s := pid / procs
		cfg.Shards[s].Procs = append(cfg.Shards[s].Procs, shard.Proc{Client: srv.Addr()})
	}
	for c := 0; c < nclients; c++ {
		cl, err := regclient.New(cfg, c%procs)
		if err != nil {
			return st, err
		}
		st.clients = append(st.clients, cl)
	}
	return st, nil
}

// openWAL opens process pid's FileWAL on a Linux memfd, reached through
// its /proc/self/fd link, so that the WAL's own code and syscalls are
// measured and not the steadiness of the disk under the benchmark: fsync on
// a memory-backed file returns without device I/O. The memfd vanishes with
// its last descriptor, so a run leaves no WAL file behind.
func openWAL(pid int) (*storage.FileWAL, error) {
	fd, err := memfd(fmt.Sprintf("p%d.wal", pid))
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd) // the WAL opens its own descriptor
	return storage.OpenFileWAL(fmt.Sprintf("/proc/self/fd/%d", fd))
}

// memfd creates an anonymous memory-backed file (memfd_create(2)).
func memfd(name string) (int, error) {
	nr := map[string]uintptr{"amd64": 319, "arm64": 279}[runtime.GOARCH]
	if runtime.GOOS != "linux" || nr == 0 {
		return -1, fmt.Errorf("memfd_create: not available on %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	p, err := syscall.BytePtrFromString(name)
	if err != nil {
		return -1, err
	}
	const mfdCloexec = 1
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(p)), mfdCloexec, 0)
	if errno != 0 {
		return -1, fmt.Errorf("memfd_create: %w", errno)
	}
	return int(fd), nil
}

// meshStats sums the transport counters of every process.
func (st *stack) meshStats() transport.MeshStats {
	var sum transport.MeshStats
	for _, m := range st.meshes {
		if m != nil {
			sum.Add(m.Stats())
		}
	}
	return sum
}

// close tears the service down: clients first, then per process the node
// (so no event loop is mid-step), its server and its mesh, and last the
// WALs. Every event loop has exited when close returns.
func (st *stack) close() error {
	for _, cl := range st.clients {
		cl.Close()
	}
	for pid := range st.nodes {
		if nd := st.nodes[pid].Swap(nil); nd != nil {
			nd.Stop()
		}
		if st.servers[pid] != nil {
			st.servers[pid].Close()
		}
		if st.meshes[pid] != nil {
			st.meshes[pid].Close()
		}
	}
	var errs []error
	for _, w := range st.wals {
		if w != nil {
			errs = append(errs, w.Close())
		}
	}
	return errors.Join(errs...)
}

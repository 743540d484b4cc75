package shard

// local.go boots a whole sharded cluster inside one process over loopback
// TCP: a grid of Processes, the real production stack minus the process
// boundary. Examples, tests and the regload harness use it to stand up a
// cluster in a few lines.

import (
	"fmt"
	"sync"
	"time"

	"twobitreg/internal/storage"
	"twobitreg/internal/transport"
)

// LocalCluster is an in-process sharded cluster on loopback TCP.
type LocalCluster struct {
	// Config is the cluster's client-facing topology (real bound
	// addresses) — hand it to a regclient.Client to talk to the cluster.
	Config *ClusterConfig

	procs [][]*Process
	// gate is every process's gate: the boot and each revival hold it
	// exclusively (see Revive).
	gate sync.RWMutex
}

// LocalOption tunes StartLocal.
type LocalOption func(*localOptions)

type localOptions struct {
	memLogs bool
	mesh    []transport.MeshOption
}

// WithMemLogs gives every process an in-memory stable-storage log (Log),
// so that a killed process can be revived from it (Revive).
func WithMemLogs() LocalOption { return func(o *localOptions) { o.memLogs = true } }

// WithMeshOptions passes opts through to every process's mesh.
func WithMeshOptions(opts ...transport.MeshOption) LocalOption {
	return func(o *localOptions) { o.mesh = append(o.mesh, opts...) }
}

// StartLocal boots shards×procsPerShard processes: per shard an
// independent quorum group (every member may write every key of the
// shard), each member with a mesh peer link and a client-protocol server
// on ephemeral loopback ports. Callers must Close.
func StartLocal(shards, procsPerShard int, opts ...LocalOption) (*LocalCluster, error) {
	if shards < 1 || shards > MaxShards {
		return nil, &ConfigError{Field: "shards", Reason: fmt.Sprintf("need 1..%d, got %d", MaxShards, shards)}
	}
	if procsPerShard < 1 || procsPerShard > 255 {
		return nil, &ConfigError{Field: "procs", Reason: fmt.Sprintf("need 1..255 per shard, got %d", procsPerShard)}
	}
	var o localOptions
	for _, opt := range opts {
		opt(&o)
	}
	lc := &LocalCluster{
		Config: &ClusterConfig{Shards: make([]Shard, shards)},
		procs:  make([][]*Process, shards),
	}
	// Deliveries wait at the gate until every node is up.
	lc.gate.Lock()
	err := lc.boot(procsPerShard, o)
	lc.gate.Unlock()
	for s := 0; err == nil && s < shards; s++ {
		for _, p := range lc.procs[s] {
			if err = p.serve("127.0.0.1:0"); err != nil {
				break
			}
			lc.Config.Shards[s].Procs = append(lc.Config.Shards[s].Procs,
				Proc{Mesh: p.MeshAddr(), Client: p.ClientAddr()})
		}
	}
	if err != nil {
		lc.Close()
		return nil, err
	}
	return lc, nil
}

// boot builds every shard in two phases: bind each member's mesh listener
// on an ephemeral port, then wire the shard's peer table and start the
// nodes.
func (lc *LocalCluster) boot(n int, o localOptions) error {
	for s := range lc.procs {
		peers := make([]string, n)
		lc.procs[s] = make([]*Process, n)
		for i := range peers {
			p := &Process{
				cfg:  ProcessConfig{Shard: s, Shards: len(lc.procs), ID: i, Peers: peers, Mesh: o.mesh},
				gate: &lc.gate,
			}
			if o.memLogs {
				p.cfg.Storage = storage.NewMemLog()
			}
			lc.procs[s][i] = p
			if err := p.listen("127.0.0.1:0"); err != nil {
				return fmt.Errorf("shard %d mesh %d: %w", s, i, err)
			}
			peers[i] = p.MeshAddr()
		}
		for _, p := range lc.procs[s] {
			st, err := p.newStore(false)
			if err != nil {
				return err
			}
			if err := p.start(st); err != nil {
				return err
			}
		}
	}
	return nil
}

// Proc returns shard s's local process i.
func (lc *LocalCluster) Proc(s, i int) *Process { return lc.procs[s][i] }

// Log returns shard s's process i's stable-storage log, nil without
// WithMemLogs.
func (lc *LocalCluster) Log(s, i int) *storage.MemLog {
	log, _ := lc.procs[s][i].cfg.Storage.(*storage.MemLog)
	return log
}

// KillProc crashes shard s's local process i (Process.Kill).
func (lc *LocalCluster) KillProc(s, i int) { lc.procs[s][i].Kill() }

// Revive rebuilds the killed process i of shard s from its log (the
// cluster must have been started WithMemLogs): replay into a fresh store,
// reset every live shard peer's link to it, rebind the original addresses
// (the peers' tables and the clients' routing config are fixed), and swap
// the recovered node in with its own link resets queued first.
func (lc *LocalCluster) Revive(s, i int) error {
	p := lc.procs[s][i]
	if p.cfg.Storage == nil || p.Node() != nil {
		return fmt.Errorf("shard: revive s%d/p%d: needs a killed process of a cluster started WithMemLogs", s, i)
	}
	fresh, err := p.newStore(true)
	if err != nil {
		return fmt.Errorf("recover s%d/p%d: %w", s, i, err)
	}
	// Every live shard peer resets its link to the victim while the
	// victim's listener is still down: the purge of frames queued for the
	// dead incarnation runs inside the peer's reset step, so once the
	// listener returns, the peer's queue holds nothing older than the
	// re-shipped backlog, in FIFO order behind the dial retry. The
	// listener must stay down until the steps have run — hence the wait,
	// bounded in case a peer is stopped out from under it by an
	// overlapping restart.
	//
	// The gate closes over the whole reset-to-swap window, not just the
	// swap: everything a peer emits toward the victim after its purge is
	// addressed to the live incarnation and must not be lost, but the
	// victim cannot drain its bounded transport queue until the listener
	// is back. Quiescing deliveries and new client ops caps what
	// accumulates in that window at the re-shipped backlog plus whatever
	// the event loops had in flight — comfortably inside the queue bound —
	// where free-running load could overflow it and wedge the cluster on
	// the silently dropped frames (lanes never resend: a sent cursor only
	// moves forward).
	lc.gate.Lock()
	var resetWG sync.WaitGroup
	for j, peer := range lc.procs[s] {
		if j == i {
			continue
		}
		pn := peer.node.Load()
		if pn == nil {
			continue
		}
		pm := peer.mesh.Load()
		resetWG.Add(1)
		ok := pn.PeerRestartedFunc(i, func() {
			if pm != nil {
				pm.PeerRestarted(i)
			}
			resetWG.Done()
		})
		if !ok {
			resetWG.Done()
		}
	}
	resets := make(chan struct{})
	go func() { resetWG.Wait(); close(resets) }()
	select {
	case <-resets:
	case <-time.After(5 * time.Second):
	}
	err = rebind(p.meshAddr, func() error { return p.listen(p.meshAddr) })
	if err == nil {
		err = p.start(fresh)
	}
	if err != nil {
		lc.gate.Unlock()
		p.Kill()
		return err
	}
	// The victim's own link resets enqueue before the gate opens, so they
	// run ahead of every inbound frame and client op. The dial kicks break
	// the peers' senders out of their reconnect backoff now that the
	// listener is provably up: the re-shipped backlogs (queued since the
	// purge) start draining in milliseconds, before the post-gate load
	// resumes and contends for queue space.
	nd := p.node.Load()
	for j, peer := range lc.procs[s] {
		if j == i {
			continue
		}
		if peer.node.Load() != nil {
			nd.PeerRestarted(j)
		}
		if pm := peer.mesh.Load(); pm != nil {
			pm.KickDial(i)
		}
	}
	lc.gate.Unlock()
	// Rebind the client port so the routing config stays valid.
	return rebind(p.clientAddr, func() error { return p.serve(p.clientAddr) })
}

// rebind retries bind while the address a killed incarnation held is
// still being released.
func rebind(addr string, bind func() error) error {
	for try := 0; ; try++ {
		err := bind()
		if err == nil {
			return nil
		}
		if try >= 200 {
			return fmt.Errorf("rebind %s: %w", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close tears the whole cluster down.
func (lc *LocalCluster) Close() {
	for _, procs := range lc.procs {
		for _, p := range procs {
			if p != nil {
				p.Kill()
			}
		}
	}
}

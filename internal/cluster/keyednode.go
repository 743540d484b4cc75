package cluster

import (
	"fmt"
	"runtime"
	"sync"

	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/storage"
)

// KeyedProcess is the keyed sibling of proto.Process: a single-threaded
// state machine multiplexing many named registers at one process, with
// operations addressed by key (internal/regmap.Node is the implementation).
// Unlike proto.Process, several client operations may be in flight at once
// — one per key — so completions are matched by operation id, not by the
// sequential-discipline invariant.
type KeyedProcess interface {
	// ID returns this process's index in [0, N).
	ID() int
	// Start begins a client operation on key; the completion surfaces in
	// this or a later Effects.Done carrying op.
	Start(key string, op proto.OpID, kind proto.OpKind, val proto.Value) proto.Effects
	// Deliver hands the process a message from peer `from`.
	Deliver(from int, msg proto.Message) proto.Effects
}

// KeyedNode is the one event loop every runtime uses: the per-shard-member
// loop of the sharded TCP service (shard.Process), and — through the Serial
// adapter — each process of a Cluster. Outbound messages go through an
// injected send function and inbound ones arrive via Deliver. Client
// operations carry keys and any number of them may be pending at once
// (operations on one key serialize inside the KeyedProcess; different keys
// proceed independently). The whole mailbox drains as one burst, so a
// coalescing process gets one flush point per burst instead of per event.
type KeyedNode struct {
	id   int
	proc KeyedProcess
	send func(to int, msg proto.Message)

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []keyedEvent
	stopping bool
	wg       sync.WaitGroup

	opMu  sync.Mutex
	opSeq proto.OpID
}

// keyedWriterSet is the optional writer-set introspection a KeyedProcess
// may offer (regmap.Node does); the node uses it to reject foreign writes
// at the client boundary instead of letting them reach the protocol.
type keyedWriterSet interface {
	IsWriter(key string, pid int) bool
}

// keyedEvent is a mailbox entry: a peer message, a keyed client operation,
// or an injected protocol step (the restart path).
type keyedEvent struct {
	// message fields
	from int
	msg  proto.Message
	// op fields (msg == nil and step == nil)
	op    proto.OpID
	key   string
	kind  proto.OpKind
	val   proto.Value
	reply chan result
	// step, when non-nil, runs against the process on the event loop.
	step func(KeyedProcess) proto.Effects
}

// NewKeyedNode starts the event loop around proc (already recovered from
// stable storage, if the deployment is durable). send is invoked from the
// event loop for every outbound message; inbound messages arrive via
// Deliver. Callers must Stop the node.
func NewKeyedNode(id int, proc KeyedProcess, send func(to int, msg proto.Message)) *KeyedNode {
	nd := &KeyedNode{id: id, proc: proc, send: send}
	nd.cond = sync.NewCond(&nd.mu)
	nd.wg.Add(1)
	go nd.run()
	return nd
}

// ID returns the node's process index within its quorum group.
func (nd *KeyedNode) ID() int { return nd.id }

// Deliver hands the node a message from peer `from`. Safe for concurrent
// use; this is the transport's inbound callback.
func (nd *KeyedNode) Deliver(from int, msg proto.Message) {
	nd.enqueue(keyedEvent{from: from, msg: msg})
}

// PeerRestartedFunc enqueues the restart protocol's link reset for peer
// onto the event loop (the process must implement storage.Recoverable).
// pre, if non-nil, runs on the event loop immediately before the reset —
// the transport purges its queue toward the peer's dead incarnation there.
// Returns false (pre will never run) if the node is stopping.
func (nd *KeyedNode) PeerRestartedFunc(peer int, pre func()) bool {
	return nd.enqueue(keyedEvent{step: func(p KeyedProcess) proto.Effects {
		if pre != nil {
			pre()
		}
		return p.(storage.Recoverable).PeerRestarted(peer)
	}})
}

// PeerRestarted is PeerRestartedFunc without a transport hook.
func (nd *KeyedNode) PeerRestarted(peer int) {
	nd.PeerRestartedFunc(peer, nil)
}

// Do performs one blocking client operation on key. A key longer than
// regmap.MaxKeyLen fails with regmap.ErrKeyTooLong before it reaches the
// process: it could not be encoded, and on a coalescing link its failed
// encode would drop the other keys' frames that share the multi-frame.
// Writes through a process outside the key's writer set surface as
// ErrNotWriter.
func (nd *KeyedNode) Do(key string, kind proto.OpKind, val proto.Value) (proto.Value, error) {
	if len(key) > regmap.MaxKeyLen {
		return nil, fmt.Errorf("%w: %d bytes (max %d)", regmap.ErrKeyTooLong, len(key), regmap.MaxKeyLen)
	}
	nd.opMu.Lock()
	nd.opSeq++
	op := nd.opSeq
	nd.opMu.Unlock()
	c, err := nd.invoke(op, key, kind, val)
	return c.Value, err
}

// invoke runs operation op, which must be unique at this node, and waits
// for its completion.
func (nd *KeyedNode) invoke(op proto.OpID, key string, kind proto.OpKind, val proto.Value) (proto.Completion, error) {
	reply := make(chan result, 1)
	if !nd.enqueue(keyedEvent{op: op, key: key, kind: kind, val: val, reply: reply}) {
		return proto.Completion{}, ErrStopped
	}
	r := <-reply
	return r.c, r.err
}

// Get reads key through this node.
func (nd *KeyedNode) Get(key string) (proto.Value, error) {
	return nd.Do(key, proto.OpRead, nil)
}

// Put writes val under key through this node.
func (nd *KeyedNode) Put(key string, val proto.Value) error {
	_, err := nd.Do(key, proto.OpWrite, val)
	return err
}

// Stop shuts the node down, failing pending operations with ErrStopped.
func (nd *KeyedNode) Stop() {
	nd.mu.Lock()
	if !nd.stopping {
		nd.stopping = true
		nd.cond.Broadcast()
	}
	nd.mu.Unlock()
	nd.wg.Wait()
}

func (nd *KeyedNode) enqueue(ev keyedEvent) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.stopping {
		return false
	}
	nd.queue = append(nd.queue, ev)
	nd.cond.Signal()
	return true
}

// nextBatch blocks until events are available and takes the whole mailbox:
// the batch is the coalescing burst — every keyed frame its events produce
// toward one peer ships as one multi-frame when the store coalesces.
//
// Between waking and taking, the loop yields the processor once. The
// cond.Signal that woke it put the loop in the signalling goroutine's
// runnext slot, so without the yield it runs as soon as that one sender
// blocks and takes a burst of about two events. The yield lets every
// goroutine that is already runnable — mesh readers with frames in their
// read buffers, session handlers holding requests — enqueue first, and
// the burst grows to what arrived together. When nothing else is
// runnable, Gosched returns at once: a latency-bound loop pays nothing,
// and there is no timer.
func (nd *KeyedNode) nextBatch() ([]keyedEvent, bool) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for len(nd.queue) == 0 && !nd.stopping {
		nd.cond.Wait()
	}
	if !nd.stopping {
		nd.mu.Unlock()
		runtime.Gosched()
		nd.mu.Lock()
	}
	if nd.stopping {
		return nil, false
	}
	batch := nd.queue
	nd.queue = nil
	return batch, true
}

func (nd *KeyedNode) run() {
	defer nd.wg.Done()
	// replies is touched only by the event loop: several operations (on
	// distinct keys) may be pending at once, matched back by op id.
	replies := make(map[proto.OpID]chan result)

	route := func(eff proto.Effects) {
		for _, s := range eff.Sends {
			nd.send(s.To, s.Msg)
		}
		for _, d := range eff.Done {
			reply, ok := replies[d.Op]
			if !ok {
				continue
			}
			delete(replies, d.Op)
			if d.Rejected {
				reply <- result{err: fmt.Errorf("%w: process %d", ErrNotWriter, nd.id)}
				continue
			}
			reply <- result{c: d}
		}
	}

	for {
		batch, ok := nd.nextBatch()
		if !ok {
			for op, reply := range replies {
				delete(replies, op)
				reply <- result{err: ErrStopped}
			}
			nd.mu.Lock()
			rest := nd.queue
			nd.queue = nil
			nd.mu.Unlock()
			for _, ev := range rest {
				if ev.msg == nil && ev.step == nil {
					ev.reply <- result{err: ErrStopped}
				}
			}
			return
		}
		for _, ev := range batch {
			switch {
			case ev.step != nil:
				route(ev.step(nd.proc))
			case ev.msg != nil:
				route(nd.proc.Deliver(ev.from, ev.msg))
			default:
				// The writer-set boundary: a foreign write must not reach
				// the protocol (regmap treats that as a harness bug).
				if ev.kind == proto.OpWrite {
					if ws, ok := nd.proc.(keyedWriterSet); ok && !ws.IsWriter(ev.key, nd.id) {
						ev.reply <- result{err: fmt.Errorf("%w: process %d, key %q", ErrNotWriter, nd.id, ev.key)}
						continue
					}
				}
				replies[ev.op] = ev.reply
				route(nd.proc.Start(ev.key, ev.op, ev.kind, ev.val))
			}
		}
		// End of burst: grant the store its flush tick (no-op for
		// non-coalescing processes).
		if f, ok := nd.proc.(proto.Flusher); ok && f.PendingFlush() {
			route(f.Flush())
		}
	}
}

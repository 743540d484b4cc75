package main

// layers.go is the traced run's instrumentation: one wrapper per seam of
// the stack (the shard.Handler, a cluster.KeyedProcess around regmap.Node,
// the send func around Mesh.Send, the mesh's deliver callback, and a
// storage.StableStorage around FileWAL). Each wrapper times the calls into
// its layer, counts them, and records spans while the window is open.
//
// The per-process wrappers (process, send, storage) run only on their
// KeyedNode's event loop, so their accumulators are plain fields; they are
// read after the stack is closed, which waits for every event loop to
// exit. The handler and deliver wrappers run on many goroutines and use
// atomics.

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"twobitreg/internal/cluster"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/shard"
	"twobitreg/internal/storage"
	"twobitreg/internal/wire"
)

// Span layers, in call order from the client down.
const (
	layerClient = iota
	layerShard
	layerRegmap
	layerSend
	layerDeliver
	layerStorage
)

var layerNames = []string{"regclient", "shard", "regmap", "transport.send", "transport.deliver", "storage.sync"}

// span is one timed call into a layer. op is the client op id it serves
// when the call carries a written value (0 otherwise); its parent is the
// span of the same op one layer up.
type span struct {
	op         uint64
	start, end int64
	layer      uint8
	pid        int16
}

// maxSpans bounds the spans kept in memory per run; calls beyond it are
// still timed and counted, only their spans are not kept.
const maxSpans = 1 << 18

type spanLog struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// timer accumulates calls and busy time from many goroutines.
type timer struct{ n, ns atomic.Int64 }

func (t *timer) add(d int64) {
	t.n.Add(1)
	t.ns.Add(d)
}

// tracer owns the wrappers of one stack. open gates them: they record only
// while the timed window is open.
type tracer struct {
	ck    clock
	open  atomic.Bool
	spans spanLog

	handler timer
	deliver timer

	procs  []*procTap
	sends  []*sendTap
	stores []*storeTap
}

func newTracer(ck clock, nprocs int) *tracer {
	return &tracer{
		ck:     ck,
		procs:  make([]*procTap, nprocs),
		sends:  make([]*sendTap, nprocs),
		stores: make([]*storeTap, nprocs),
	}
}

// taps returns the full set of wrappers.
func (tr *tracer) taps() taps {
	return taps{
		proc: func(pid int, nd *regmap.Node) cluster.KeyedProcess {
			p := &procTap{Node: nd, tr: tr, pid: pid, started: make(map[proto.OpID]opStart)}
			tr.procs[pid] = p
			return p
		},
		send: func(pid int, send func(int, proto.Message)) func(int, proto.Message) {
			s := &sendTap{}
			tr.sends[pid] = s
			return func(to int, msg proto.Message) {
				if !tr.open.Load() {
					send(to, msg)
					return
				}
				t0 := tr.ck.now()
				send(to, msg)
				t1 := tr.ck.now()
				s.ns += t1 - t0
				tr.spans.add(span{start: t0, end: t1, layer: layerSend, pid: int16(pid)})
			}
		},
		deliver: func(pid int, deliver func(int, proto.Message)) func(int, proto.Message) {
			return func(from int, msg proto.Message) {
				if !tr.open.Load() {
					deliver(from, msg)
					return
				}
				t0 := tr.ck.now()
				deliver(from, msg)
				t1 := tr.ck.now()
				tr.deliver.add(t1 - t0)
				tr.spans.add(span{start: t0, end: t1, layer: layerDeliver, pid: int16(pid)})
			}
		},
		store: func(pid int, wal *storage.FileWAL) storage.StableStorage {
			s := &storeTap{StableStorage: wal, tr: tr, pid: pid, timed: true}
			tr.stores[pid] = s
			return s
		},
		handler: func(pid int, h shard.Handler) shard.Handler {
			return func(op wire.ClientOp, key string, val []byte) ([]byte, error) {
				if !tr.open.Load() {
					return h(op, key, val)
				}
				id, _ := decodeValue(val)
				t0 := tr.ck.now()
				v, err := h(op, key, val)
				t1 := tr.ck.now()
				tr.handler.add(t1 - t0)
				tr.spans.add(span{op: id, start: t0, end: t1, layer: layerShard, pid: int16(pid)})
				return v, err
			}
		},
	}
}

// syncCounter returns taps with only a counting storage wrapper: no clock
// reads, no spans. The untraced reference half of a traced run uses it so
// that its storage.syncs_per_op can be compared with the traced half's.
func (tr *tracer) syncCounter() taps {
	return taps{store: func(pid int, wal *storage.FileWAL) storage.StableStorage {
		s := &storeTap{StableStorage: wal, tr: tr, pid: pid}
		tr.stores[pid] = s
		return s
	}}
}

// procTap wraps one process's regmap.Node. It forwards every optional
// interface KeyedNode looks for — proto.Flusher, the writer-set IsWriter
// and storage.Recoverable — by embedding the node and overriding only the
// calls it times.
type procTap struct {
	*regmap.Node
	tr      *tracer
	pid     int
	started map[proto.OpID]opStart

	starts, delivers, bursts int64
	busyNs                   int64
	done, doneNs             int64
	reads, readRounds, fast  int64
}

func (p *procTap) Start(key string, op proto.OpID, kind proto.OpKind, val proto.Value) proto.Effects {
	if !p.tr.open.Load() {
		return p.Node.Start(key, op, kind, val)
	}
	t0 := p.tr.ck.now()
	id, _ := decodeValue(val)
	p.started[op] = opStart{at: t0, id: id}
	eff := p.Node.Start(key, op, kind, val)
	t1 := p.tr.ck.now()
	p.starts++
	p.busyNs += t1 - t0
	p.complete(eff, t1)
	return eff
}

func (p *procTap) Deliver(from int, msg proto.Message) proto.Effects {
	if !p.tr.open.Load() {
		return p.complete(p.Node.Deliver(from, msg), p.tr.ck.now())
	}
	t0 := p.tr.ck.now()
	eff := p.Node.Deliver(from, msg)
	t1 := p.tr.ck.now()
	p.delivers++
	p.busyNs += t1 - t0
	return p.complete(eff, t1)
}

// PendingFlush is asked once per drained mailbox burst.
func (p *procTap) PendingFlush() bool {
	if p.tr.open.Load() {
		p.bursts++
	}
	return p.Node.PendingFlush()
}

func (p *procTap) Flush() proto.Effects {
	if !p.tr.open.Load() {
		return p.Node.Flush()
	}
	t0 := p.tr.ck.now()
	eff := p.Node.Flush()
	p.busyNs += p.tr.ck.now() - t0
	return eff
}

// complete closes the regmap op span of every operation eff completes
// that started while the window was open.
func (p *procTap) complete(eff proto.Effects, now int64) proto.Effects {
	if len(p.started) == 0 {
		return eff
	}
	for _, d := range eff.Done {
		st, ok := p.started[d.Op]
		if !ok {
			continue
		}
		delete(p.started, d.Op)
		p.done++
		p.doneNs += now - st.at
		if d.Kind == proto.OpRead {
			p.reads++
			p.readRounds += int64(d.Rounds)
			if d.Rounds == 1 {
				p.fast++
			}
		}
		p.tr.spans.add(span{op: st.id, start: st.at, end: now, layer: layerRegmap, pid: int16(p.pid)})
	}
	return eff
}

// opStart is an operation Start saw while the window was open: when, and
// the client op id its written value carries (0 for a read).
type opStart struct {
	at int64
	id uint64
}

// sendTap accumulates one process's time inside Mesh.Send.
type sendTap struct{ ns int64 }

// storeTap wraps one process's FileWAL. With timed false it only counts.
type storeTap struct {
	storage.StableStorage
	tr    *tracer
	pid   int
	timed bool

	appends, appendBytes int64
	pending              int64 // appends since the last Sync
	syncs, useful        int64
	syncNs               int64
	syncDur              []float64 // ns, for the p99
}

func (s *storeTap) Append(r storage.Record) {
	if s.tr.open.Load() {
		s.appends++
		s.pending++
		// The FileWAL frame: a 16-byte header, then key and value.
		s.appendBytes += int64(16 + len(r.Key) + len(r.Val))
	}
	s.StableStorage.Append(r)
}

func (s *storeTap) Sync() error {
	if !s.tr.open.Load() {
		s.pending = 0
		return s.StableStorage.Sync()
	}
	s.syncs++
	if s.pending > 0 {
		s.useful++
		s.pending = 0
	}
	if !s.timed {
		return s.StableStorage.Sync()
	}
	t0 := s.tr.ck.now()
	err := s.StableStorage.Sync()
	t1 := s.tr.ck.now()
	s.syncNs += t1 - t0
	s.syncDur = append(s.syncDur, float64(t1-t0))
	s.tr.spans.add(span{start: t0, end: t1, layer: layerStorage, pid: int16(s.pid)})
	return err
}

// writeSpans writes the client spans (one per recorded op) and the
// wrappers' spans to path as tab-separated lines: layer, pid, op id,
// parent layer, start ns, end ns.
func (tr *tracer) writeSpans(path string, run *loadRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "layer\tpid\top\tparent\tstart_ns\tend_ns\n")
	for g, rs := range run.recs {
		for seq, r := range rs {
			fmt.Fprintf(w, "%s\t-1\t%#x\t-\t%d\t%d\n", layerNames[layerClient], opID(g, seq), r.inv, r.res)
		}
	}
	parent := []string{"-", "regclient", "shard", "regmap", "-", "regmap"}
	for _, s := range tr.spans.spans {
		fmt.Fprintf(w, "%s\t%d\t%#x\t%s\t%d\t%d\n", layerNames[s.layer], s.pid, s.op, parent[s.layer], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

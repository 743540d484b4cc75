package cluster

import (
	"twobitreg/internal/proto"
	"twobitreg/internal/storage"
)

// Serial adapts a single-register proto.Process to KeyedProcess so that it
// runs on a KeyedNode. Keys are ignored (the process is one register), and
// client operations queue behind the in-flight one: the paper's processes
// are sequential. The adapter forwards proto.Flusher and the
// storage.Recoverable lifecycle to p; the Recoverable calls require p to
// implement it.
func Serial(p proto.Process) KeyedProcess {
	s := &serial{p: p}
	s.flusher, _ = p.(proto.Flusher)
	return s
}

type serial struct {
	p       proto.Process
	flusher proto.Flusher // p as a Flusher, nil if it is not one
	busy    bool
	queue   []queuedOp
	sends   []proto.Send // scratch for the merged sends of chained steps
}

type queuedOp struct {
	op   proto.OpID
	kind proto.OpKind
	val  proto.Value
}

func (s *serial) ID() int { return s.p.ID() }

func (s *serial) Start(_ string, op proto.OpID, kind proto.OpKind, val proto.Value) proto.Effects {
	if s.busy {
		s.queue = append(s.queue, queuedOp{op, kind, val})
		return proto.Effects{}
	}
	return s.settle(s.start(queuedOp{op, kind, val}))
}

func (s *serial) Deliver(from int, msg proto.Message) proto.Effects {
	return s.settle(s.p.Deliver(from, msg))
}

func (s *serial) start(q queuedOp) proto.Effects {
	s.busy = true
	if q.kind == proto.OpWrite {
		return s.p.StartWrite(q.op, q.val)
	}
	return s.p.StartRead(q.op)
}

// settle ends the in-flight operation when eff completes it, then starts
// queued operations until one stays in flight, merging their effects into
// eff's. eff's sends are copied first: the process may reuse their buffer
// on the next call.
func (s *serial) settle(eff proto.Effects) proto.Effects {
	if len(eff.Done) == 0 {
		return eff
	}
	s.busy = false
	if len(s.queue) == 0 {
		return eff
	}
	out := proto.Effects{
		Sends: append(s.sends[:0], eff.Sends...),
		Done:  append([]proto.Completion(nil), eff.Done...),
	}
	for !s.busy && len(s.queue) > 0 {
		next := s.start(s.queue[0])
		s.queue = s.queue[1:]
		out.Sends = append(out.Sends, next.Sends...)
		if len(next.Done) > 0 {
			s.busy = false
			out.Done = append(out.Done, next.Done...)
		}
	}
	s.sends = out.Sends
	return out
}

func (s *serial) PendingFlush() bool { return s.flusher != nil && s.flusher.PendingFlush() }

func (s *serial) Flush() proto.Effects { return s.settle(s.flusher.Flush()) }

func (s *serial) RecoveryEnabled() bool {
	r, ok := s.p.(storage.Recoverable)
	return ok && r.RecoveryEnabled()
}

func (s *serial) AttachStorage(st storage.StableStorage) {
	s.p.(storage.Recoverable).AttachStorage(st)
}

func (s *serial) Recover(st storage.StableStorage) error {
	return s.p.(storage.Recoverable).Recover(st)
}

func (s *serial) PeerRestarted(peer int) proto.Effects {
	return s.settle(s.p.(storage.Recoverable).PeerRestarted(peer))
}

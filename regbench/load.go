package main

// load.go holds the workloads, the seeded generation of their inputs, the
// closed-loop load generator, and the correctness gate that judges every recorded
// history.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"twobitreg/internal/check"
	"twobitreg/internal/proto"
	"twobitreg/internal/regclient"
)

// workload is one traffic mix. Every workload is a closed loop: each of
// inflight callers waits for its reply before issuing its next operation.
type workload struct {
	name     string
	shards   int
	procs    int
	inflight int
	readFrac float64
	keys     int
	wal      bool
}

var workloads = []workload{
	{name: "read-mostly", shards: 1, procs: 3, inflight: 2, readFrac: 0.9, keys: 1024},
	{name: "write-durable", shards: 1, procs: 3, inflight: 16, readFrac: 0.1, keys: 256, wal: true},
	{name: "pipelined-sharded", shards: 2, procs: 3, inflight: 32, readFrac: 0.6, keys: 4096},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// valueLen is the size of every written value.
const valueLen = 16

// An op id names one client operation: the caller (worker) in the high
// bits, the caller's operation sequence number in the low 40. Written
// values carry it, so every write is distinct, a read names the write it
// returned, and a client span joins the server-side spans of its write.
const (
	seqBits   = 40
	seqMask   = 1<<seqBits - 1
	preloadID = 0xffff // the worker id of the preload writes
)

func opID(worker, seq int) uint64 { return uint64(worker)<<seqBits | uint64(seq) }

// encodeValue renders id as a 16-byte value: 'v' and 15 hex digits.
func encodeValue(id uint64) []byte {
	const hex = "0123456789abcdef"
	b := make([]byte, valueLen)
	b[0] = 'v'
	for i := valueLen - 1; i > 0; i-- {
		b[i] = hex[id&0xf]
		id >>= 4
	}
	return b
}

// decodeValue inverts encodeValue; ok is false for anything it cannot
// have produced.
func decodeValue(b []byte) (id uint64, ok bool) {
	if len(b) != valueLen || b[0] != 'v' {
		return 0, false
	}
	for _, c := range b[1:] {
		switch {
		case c >= '0' && c <= '9':
			id = id<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			id = id<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return id, true
}

// rngFor derives an independent generator for one stream of one workload
// under seed. The stream index -1 draws the key names.
func rngFor(seed int64, w workload, stream int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", w.name, stream)
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
}

// makeKeys draws the workload's key names from the seed. Names decide
// shard placement, so placement follows the seed too.
func makeKeys(seed int64, w workload) []string {
	rng := rngFor(seed, w, -1)
	seen := make(map[string]bool, w.keys)
	keys := make([]string, 0, w.keys)
	for len(keys) < w.keys {
		k := fmt.Sprintf("k%012x", rng.Uint64()&(1<<48-1))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// opStream is one caller's seeded sequence of operations.
type opStream struct {
	rng      *rand.Rand
	readFrac float64
	keys     int
}

func newOpStream(seed int64, w workload, worker int) *opStream {
	return &opStream{rng: rngFor(seed, w, worker), readFrac: w.readFrac, keys: w.keys}
}

// next returns the key index and kind of the caller's next operation.
func (s *opStream) next() (key int, read bool) {
	return s.rng.IntN(s.keys), s.rng.Float64() < s.readFrac
}

// opRec is one completed client operation. Times are nanoseconds since the
// run's base instant. val is the op id written, or the op id the read
// returned (noValue for a read of a value the benchmark cannot decode,
// which the gate reports).
type opRec struct {
	inv, res int64
	val      uint64
	key      int32
	read     bool
	failed   bool
	wrong    bool // failed with regclient.ErrWrongShard
}

const noValue = ^uint64(0)

// loadRun is everything one closed-loop window recorded.
type loadRun struct {
	recs       [][]opRec // per worker, indexed by sequence number
	start, end int64     // window bounds, ns since base
}

func (r *loadRun) ops() (n int) {
	for _, rs := range r.recs {
		n += len(rs)
	}
	return n
}

// clock is the run's monotonic time base.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// doOp performs one operation through cl and records it.
func doOp(cl *regclient.Client, ck clock, keys []string, key int, read bool, id uint64) opRec {
	r := opRec{key: int32(key), read: read}
	r.inv = ck.now()
	var err error
	if read {
		var v []byte
		v, err = cl.Get(keys[key])
		r.val = noValue
		if got, ok := decodeValue(v); ok && err == nil {
			r.val = got
		}
	} else {
		r.val = id
		err = cl.Put(keys[key], encodeValue(id))
	}
	r.res = ck.now()
	if err != nil {
		r.failed = true
		r.wrong = errors.Is(err, regclient.ErrWrongShard)
	}
	return r
}

// preload writes every key once, spreading the keys over the workload's
// callers, and returns the records indexed by key.
func preload(st *stack, w workload, keys []string, ck clock) []opRec {
	recs := make([]opRec, len(keys))
	var wg sync.WaitGroup
	for g := 0; g < w.inflight; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := st.clients[g%len(st.clients)]
			for k := g; k < len(keys); k += w.inflight {
				recs[k] = doOp(cl, ck, keys, k, false, opID(preloadID, k))
			}
		}(g)
	}
	wg.Wait()
	return recs
}

// drive runs the closed loop for d: worker g draws its operations from its
// own seeded stream and sends them through client g mod len(clients)
// until the deadline; the window ends when the last reply is in.
func drive(st *stack, w workload, keys []string, seed int64, ck clock, d time.Duration) *loadRun {
	run := &loadRun{recs: make([][]opRec, w.inflight)}
	var wg sync.WaitGroup
	run.start = ck.now()
	deadline := run.start + int64(d)
	for g := 0; g < w.inflight; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := st.clients[g%len(st.clients)]
			ops := newOpStream(seed, w, g)
			var recs []opRec
			for seq := 0; ck.now() < deadline; seq++ {
				key, read := ops.next()
				recs = append(recs, doOp(cl, ck, keys, key, read, opID(g, seq)))
			}
			run.recs[g] = recs
		}(g)
	}
	wg.Wait()
	run.end = ck.now()
	return run
}

// gate judges a run's correctness: every read returns a value that was
// written to the same key, and each key's history — preload included — is
// linearizable under check.For.
func gate(keys []string, pre []opRec, run *loadRun) error {
	writeOf := func(id uint64) (opRec, bool) {
		w, s := int(id>>seqBits), int(id&seqMask)
		switch {
		case id == noValue:
			return opRec{}, false
		case w == preloadID && s < len(pre):
			return pre[s], true
		case w < len(run.recs) && s < len(run.recs[w]):
			r := run.recs[w][s]
			return r, !r.read
		}
		return opRec{}, false
	}
	hist := make([][]check.Op, len(keys))
	add := func(worker int, r opRec, id uint64) error {
		if r.read && !r.failed {
			if wr, ok := writeOf(r.val); !ok || wr.key != r.key {
				return fmt.Errorf("key %s: read returned a value never written to it (op %#x)", keys[r.key], id)
			}
		}
		if r.read && r.failed {
			return nil // a failed read constrains nothing
		}
		op := check.Op{
			ID: proto.OpID(id), Proc: worker, Kind: proto.OpWrite,
			Value: proto.Value(encodeValue(r.val)), Inv: float64(r.inv), Res: float64(r.res),
			Completed: !r.failed,
		}
		if r.read {
			op.Kind = proto.OpRead
		}
		hist[r.key] = append(hist[r.key], op)
		return nil
	}
	for k, r := range pre {
		if err := add(len(run.recs), r, opID(preloadID, k)); err != nil {
			return err
		}
	}
	for g, rs := range run.recs {
		for s, r := range rs {
			if err := add(g, r, opID(g, s)); err != nil {
				return err
			}
		}
	}
	for k, ops := range hist {
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].Inv < ops[j].Inv })
		h := check.History{Ops: ops}
		c := check.For(h)
		if err := c.Check(h); err != nil {
			return fmt.Errorf("key %s: %s: %w", keys[k], c.Name(), err)
		}
	}
	return nil
}

package regmap

import (
	"fmt"
	"testing"

	"twobitreg/internal/core"
	"twobitreg/internal/proto"
)

// TestFlushSplitsMultiFramesByPayload pins the frame-size half of the
// coalescer's contract on a three-node store driven in bursts, the way a
// KeyedNode drains its mailbox: every MultiMsg holds at most
// MaxMultiFrames subframes and, past the first, core.MaxBatchDataBytes of
// payload — a subframe too large to share a chunk ships bare — and every
// operation still completes.
func TestFlushSplitsMultiFramesByPayload(t *testing.T) {
	nodes := make([]*Node, 3)
	for i := range nodes {
		nd, err := NewNode(i, Config{N: 3, DefaultWriters: []int{0, 1, 2}, Coalesce: true})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	type env struct {
		from, to int
		msg      proto.Message
	}
	var queue []env
	done, multis := 0, 0
	absorb := func(from int, eff proto.Effects) {
		done += len(eff.Done)
		for _, s := range eff.Sends {
			if m, ok := s.Msg.(MultiMsg); ok {
				multis++
				if len(m.Frames) > MaxMultiFrames {
					t.Fatalf("multi-frame of %d subframes", len(m.Frames))
				}
				if m.DataBytes() > core.MaxBatchDataBytes {
					t.Fatalf("multi-frame carries %d bytes of payload, over %d", m.DataBytes(), core.MaxBatchDataBytes)
				}
			}
			queue = append(queue, env{from, s.To, s.Msg})
		}
	}

	mib := make(proto.Value, 1<<20)
	huge := make(proto.Value, 2*core.MaxBatchDataBytes)
	ops := 0
	start := func(key string, val proto.Value) {
		ops++
		absorb(0, nodes[0].Start(key, proto.OpID(ops), proto.OpWrite, val))
	}
	for i := 0; i < 24; i++ {
		start(fmt.Sprintf("big%d", i), mib)
	}
	start("huge", huge)
	for i := 0; i < 2*MaxMultiFrames; i++ {
		start(fmt.Sprintf("small%d", i), proto.Value("s"))
	}
	for round := 0; ; round++ {
		for i, nd := range nodes {
			absorb(i, nd.Flush())
		}
		if len(queue) == 0 {
			break
		}
		if round > 100 {
			t.Fatal("store did not quiesce")
		}
		burst := queue
		queue = nil
		for _, e := range burst {
			absorb(e.to, nodes[e.to].Deliver(e.from, e.msg))
		}
	}
	if done != ops {
		t.Fatalf("%d of %d writes completed", done, ops)
	}
	if multis == 0 {
		t.Fatal("the bursts never coalesced")
	}
}

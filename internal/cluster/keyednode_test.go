package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
)

// keyedTrio wires three KeyedNodes directly to each other in memory — the
// regnode stack minus the TCP mesh, so these tests pin the event loop.
func keyedTrio(t *testing.T, cfg regmap.Config) []*KeyedNode {
	t.Helper()
	cfg.N = 3
	nodes := make([]*KeyedNode, 3)
	for i := 0; i < 3; i++ {
		i := i
		st, err := regmap.NewNode(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewKeyedNode(i, st, func(to int, msg proto.Message) {
			// nodes[to] is written before any send can happen: sends only
			// occur on event loops, which only get events after this loop.
			nodes[to].Deliver(i, msg)
		})
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})
	return nodes
}

func TestKeyedNodeMultiKeyConcurrent(t *testing.T) {
	nodes := keyedTrio(t, regmap.Config{DefaultWriters: []int{0, 1, 2}, Coalesce: true})

	const keysN = 8
	var wg sync.WaitGroup
	errs := make(chan error, keysN)
	for k := 0; k < keysN; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", k)
			writer := nodes[k%3]
			reader := nodes[(k+1)%3]
			for rev := 0; rev < 5; rev++ {
				want := fmt.Sprintf("%s@%d", key, rev)
				if err := writer.Put(key, []byte(want)); err != nil {
					errs <- fmt.Errorf("put %s: %w", want, err)
					return
				}
				got, err := reader.Get(key)
				if err != nil {
					errs <- fmt.Errorf("get %s: %w", key, err)
					return
				}
				// The write completed before the read started, so the read
				// must not return an older revision (atomicity).
				if string(got) != want {
					errs <- fmt.Errorf("key %s: read %q after writing %q", key, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestKeyedNodeWriterSetBoundary(t *testing.T) {
	nodes := keyedTrio(t, regmap.Config{DefaultWriters: []int{0}})

	if err := nodes[0].Put("owned", []byte("v1")); err != nil {
		t.Fatalf("writer's own put: %v", err)
	}
	err := nodes[1].Put("owned", []byte("usurped"))
	if !errors.Is(err, ErrNotWriter) {
		t.Fatalf("foreign write: %v, want ErrNotWriter", err)
	}
	// The rejected write must not have disturbed the register.
	got, err := nodes[2].Get("owned")
	if err != nil || string(got) != "v1" {
		t.Fatalf("read after rejected write: %q, %v", got, err)
	}
}

func TestKeyedNodeStopFailsPending(t *testing.T) {
	// A single node whose sends go nowhere: every quorum round stalls, so
	// operations park until Stop fails them.
	st, err := regmap.NewNode(0, regmap.Config{N: 3, DefaultWriters: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	nd := NewKeyedNode(0, st, func(to int, msg proto.Message) {})

	const n = 3
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			_, err := nd.Get(fmt.Sprintf("parked-%d", i))
			done <- err
		}()
	}
	// The gets are enqueued (possibly not yet started); Stop must fail
	// both started and queued operations.
	nd.Stop()
	for i := 0; i < n; i++ {
		if err := <-done; !errors.Is(err, ErrStopped) {
			t.Fatalf("pending op failed with %v, want ErrStopped", err)
		}
	}
	if err := nd.Put("after", []byte("x")); !errors.Is(err, ErrStopped) {
		t.Fatalf("op after Stop: %v, want ErrStopped", err)
	}
}

// tick is the burst test's one-event message.
type tick struct{}

func (tick) TypeName() string { return "TICK" }
func (tick) ControlBits() int { return 0 }
func (tick) DataBytes() int   { return 0 }

// burstCounter is a coalescing KeyedProcess that counts the events it sees
// and the flush ticks the loop grants it. Reads complete at once; each
// delivered message also posts a token on arrived. Its counters are
// touched only on the event loop.
type burstCounter struct {
	events, flushes int
	pending         bool
	arrived         chan struct{}
}

func (b *burstCounter) ID() int { return 0 }

func (b *burstCounter) Start(_ string, op proto.OpID, kind proto.OpKind, _ proto.Value) proto.Effects {
	b.events++
	b.pending = true
	return proto.Effects{Done: []proto.Completion{{Op: op, Kind: kind}}}
}

func (b *burstCounter) Deliver(int, proto.Message) proto.Effects {
	b.events++
	b.pending = true
	b.arrived <- struct{}{}
	return proto.Effects{}
}

func (b *burstCounter) PendingFlush() bool { return b.pending }

func (b *burstCounter) Flush() proto.Effects {
	b.pending = false
	b.flushes++
	return proto.Effects{}
}

// TestKeyedNodeBurstsForm pins burst formation: events that become ready
// together are taken as one burst, so a coalescing process gets one flush
// for many events rather than one for every event or two. Each round
// releases k goroutines at once, each delivering one event. A lone event
// must still complete at once, since no timer holds the loop back.
func TestKeyedNodeBurstsForm(t *testing.T) {
	const k, rounds = 8, 200
	b := &burstCounter{arrived: make(chan struct{}, k)}
	nd := NewKeyedNode(0, b, func(int, proto.Message) {})
	for r := 0; r < rounds; r++ {
		release := make(chan struct{})
		var parked sync.WaitGroup
		parked.Add(k)
		for i := 0; i < k; i++ {
			go func() {
				parked.Done()
				<-release
				nd.Deliver(1, tick{})
			}()
		}
		parked.Wait()
		close(release)
		for i := 0; i < k; i++ {
			<-b.arrived
		}
	}
	nd.Stop() // every burst, and its flush, has run once the loop exits
	perEvent := float64(b.flushes) / float64(b.events)
	t.Logf("%d events, %d flushes: %.3f flushes/event", b.events, b.flushes, perEvent)
	if b.events != k*rounds {
		t.Fatalf("%d events, want %d", b.events, k*rounds)
	}
	if perEvent > 0.3 {
		t.Fatalf("%.3f flushes/event for %d events released together: bursts do not form", perEvent, k)
	}

	lone := &burstCounter{}
	nd = NewKeyedNode(0, lone, func(int, proto.Message) {})
	defer nd.Stop()
	const ops = 200
	start := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := nd.Get("lone"); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el > ops*time.Millisecond {
		t.Fatalf("%d lone reads took %v: a lone event waited", ops, el)
	}
}

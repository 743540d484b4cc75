package regmap_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"twobitreg/internal/cluster"
	"twobitreg/internal/metrics"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
)

// store is an in-memory keyed store for the tests: one regmap.Node per
// process, each on its own cluster.KeyedNode event loop, wired to each
// other by direct Deliver calls (the production stack minus the TCP mesh).
type store struct {
	cfg   regmap.Config
	nodes []*cluster.KeyedNode
}

// newStore starts cfg.N processes. onSend, if non-nil, sees every message
// a process sends; it runs on the sender's event loop.
func newStore(t *testing.T, cfg regmap.Config, onSend func(proto.Message)) *store {
	t.Helper()
	s := &store{cfg: cfg, nodes: make([]*cluster.KeyedNode, cfg.N)}
	for i := range s.nodes {
		nd, err := regmap.NewNode(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		from := i
		// s.nodes[to] is filled before any send: sends happen on event
		// loops, which get their first event after newStore returns.
		s.nodes[i] = cluster.NewKeyedNode(i, nd, func(to int, msg proto.Message) {
			if onSend != nil {
				onSend(msg)
			}
			s.nodes[to].Deliver(from, msg)
		})
	}
	t.Cleanup(s.stop)
	return s
}

// write stores val under key through process pid.
func (s *store) write(pid int, key string, val string) error {
	return s.nodes[pid].Put(key, []byte(val))
}

// read returns key's value as seen through process pid.
func (s *store) read(pid int, key string) (proto.Value, error) {
	return s.nodes[pid].Get(key)
}

// crash stops process pid: its registers stop with it, and sends toward it
// are dropped.
func (s *store) crash(pid int) { s.nodes[pid].Stop() }

func (s *store) stop() {
	for _, nd := range s.nodes {
		nd.Stop()
	}
}

func TestStoreWriteRead(t *testing.T) {
	t.Parallel()
	s := newStore(t, regmap.Config{N: 5}, nil)
	if err := s.write(0, "alpha", "1"); err != nil {
		t.Fatal(err)
	}
	if err := s.write(0, "beta", "2"); err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 5; pid++ {
		a, err := s.read(pid, "alpha")
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.read(pid, "beta")
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != "1" || string(b) != "2" {
			t.Fatalf("p%d read alpha=%q beta=%q", pid, a, b)
		}
	}
}

func TestStoreKeysAreIndependent(t *testing.T) {
	t.Parallel()
	s := newStore(t, regmap.Config{N: 3}, nil)
	if err := s.write(0, "k", "x"); err != nil {
		t.Fatal(err)
	}
	// A never-written key reads nil even after other keys were written.
	v, err := s.read(2, "unwritten")
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("unwritten key read %q, want nil", v)
	}
}

func TestStoreOverwrite(t *testing.T) {
	t.Parallel()
	s := newStore(t, regmap.Config{N: 3}, nil)
	for k := 1; k <= 10; k++ {
		if err := s.write(0, "cfg", fmt.Sprintf("rev%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.read(1, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "rev10" {
		t.Fatalf("read %q, want rev10", v)
	}
}

func TestStoreConcurrentKeys(t *testing.T) {
	t.Parallel()
	s := newStore(t, regmap.Config{N: 5}, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", w)
			for k := 1; k <= 10; k++ {
				if err := s.write(0, key, fmt.Sprintf("%d", k)); err != nil {
					t.Errorf("write %s: %v", key, err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", w)
			for k := 0; k < 10; k++ {
				if _, err := s.read(1+(w+k)%4, key); err != nil {
					t.Errorf("read %s: %v", key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Final values converge.
	for w := 0; w < 8; w++ {
		v, err := s.read(4, fmt.Sprintf("key-%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if string(v) != "10" {
			t.Fatalf("key-%d = %q, want 10", w, v)
		}
	}
}

func TestStoreCrashMinority(t *testing.T) {
	t.Parallel()
	s := newStore(t, regmap.Config{N: 5}, nil)
	if err := s.write(0, "k", "before"); err != nil {
		t.Fatal(err)
	}
	s.crash(3)
	s.crash(4)
	if err := s.write(0, "k", "after"); err != nil {
		t.Fatalf("write with minority crashed: %v", err)
	}
	v, err := s.read(1, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "after" {
		t.Fatalf("read %q, want after", v)
	}
	if _, err := s.read(4, "k"); !errors.Is(err, cluster.ErrStopped) {
		t.Fatalf("read via crashed process: %v, want ErrStopped", err)
	}
}

// TestStoreControlBitsAccounting counts every sent message through the
// send function: each carries the register's 2 bits + 16 key bits.
func TestStoreControlBitsAccounting(t *testing.T) {
	t.Parallel()
	col := &metrics.Collector{}
	s := newStore(t, regmap.Config{N: 3}, col.OnSend)
	if err := s.write(0, "ab", "v"); err != nil {
		t.Fatal(err)
	}
	s.stop() // every event loop has exited: the census is complete
	snap := col.Snapshot()
	if snap.TotalMsgs == 0 {
		t.Fatal("no messages counted")
	}
	if snap.MaxCtrlBits != 2+16 {
		t.Fatalf("max control bits = %d, want 18 (2 register + 16 key)", snap.MaxCtrlBits)
	}
}

func TestStoreRejectsBadInput(t *testing.T) {
	t.Parallel()
	if _, err := regmap.NewNode(0, regmap.Config{N: 0}); err == nil {
		t.Fatal("accepted N=0")
	}
	if _, err := regmap.NewNode(99, regmap.Config{N: 3}); err == nil {
		t.Fatal("accepted out-of-range pid")
	}
	s := newStore(t, regmap.Config{N: 3}, nil)
	long := string(make([]byte, regmap.MaxKeyLen+1))
	if err := s.write(0, long, "v"); !errors.Is(err, regmap.ErrKeyTooLong) {
		t.Fatalf("oversized key: %v, want ErrKeyTooLong", err)
	}
	if _, err := s.read(1, long); !errors.Is(err, regmap.ErrKeyTooLong) {
		t.Fatalf("oversized key read: %v, want ErrKeyTooLong", err)
	}
}

func TestStoreStopUnblocksPending(t *testing.T) {
	t.Parallel()
	s := newStore(t, regmap.Config{N: 3}, nil)
	s.crash(1)
	s.crash(2) // majority gone: writes cannot finish
	done := make(chan error, 1)
	go func() { done <- s.write(0, "k", "stuck") }()
	s.stop()
	if err := <-done; !errors.Is(err, cluster.ErrStopped) {
		t.Fatalf("unblocked write: %v, want ErrStopped", err)
	}
}

func TestStoreWithHistoryGC(t *testing.T) {
	t.Parallel()
	s := newStore(t, regmap.Config{N: 3, HistoryGC: true}, nil)
	for k := 1; k <= 50; k++ {
		if err := s.write(0, "hot", fmt.Sprintf("%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.read(2, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "50" {
		t.Fatalf("read %q, want 50", v)
	}
}

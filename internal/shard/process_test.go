package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"twobitreg/internal/regmap"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
)

// reserveAddrs returns n loopback addresses that were free a moment ago,
// for topologies whose addresses must be known before every process runs.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// TestProcessBootsIntoLiveShard boots two members of a three-member shard
// and keeps puts running through them, so their WRITE frames toward the
// third member queue up and flood it as soon as its mesh listens. The
// third member's node must be reachable before its mesh delivers: no
// panic, no race report, and it must then serve a get of the latest write.
func TestProcessBootsIntoLiveShard(t *testing.T) {
	addrs := reserveAddrs(t, 6)
	peers, clients := addrs[:3], addrs[3:]
	start := func(id int) *Process {
		p, err := StartProcess(ProcessConfig{Shards: 1, ID: id, Peers: peers, Client: clients[id]})
		if err != nil {
			t.Fatalf("start process %d: %v", id, err)
		}
		t.Cleanup(p.Kill)
		return p
	}
	live := []*Process{start(0), start(1)}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, len(live))
	for w, p := range live {
		w, p := w, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := p.Node().Put(fmt.Sprintf("k%d", i%4), []byte(fmt.Sprintf("w%d.%d", w, i))); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	third := start(2)
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A frame the third member lost while booting would leave a gap in a
	// writer's lane that is never resent: its view of the key would stall.
	if err := live[0].Node().Put("k0", []byte("final")); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		v, err := third.Node().Get("k0")
		if err == nil && string(v) != "final" {
			err = fmt.Errorf("read %q, want final", v)
		}
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("third member's get: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("third member never served its get")
	}
}

// TestLocalRejectsBadInput pins the input checks in front of the wire
// codec. An oversized key fails fast at the node: were it to reach the
// store, its frame would fail to encode and, coalesced, take the other
// keys' frames of the same multi-frame down with it, wedging them. So a
// put and a get on a normal key, issued alongside it, must complete.
func TestLocalRejectsBadInput(t *testing.T) {
	if _, err := StartLocal(1, 0); err == nil {
		t.Fatal("accepted a shard of 0 processes")
	}
	if _, err := StartProcess(ProcessConfig{Shards: 1, ID: 99, Peers: []string{"127.0.0.1:0"}}); err == nil {
		t.Fatal("accepted an out-of-range process id")
	}

	lc, err := StartLocal(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	nd := lc.Proc(0, 0).Node()
	long := strings.Repeat("k", regmap.MaxKeyLen+1)
	ops := []func() error{
		func() error {
			if err := nd.Put(long, []byte("v")); !errors.Is(err, regmap.ErrKeyTooLong) {
				return fmt.Errorf("oversized put: %v, want ErrKeyTooLong", err)
			}
			return nil
		},
		func() error {
			if _, err := nd.Get(long); !errors.Is(err, regmap.ErrKeyTooLong) {
				return fmt.Errorf("oversized get: %v, want ErrKeyTooLong", err)
			}
			return nil
		},
		func() error { return nd.Put("normal", []byte("v")) },
		func() error {
			_, err := nd.Get("normal")
			return err
		},
	}
	done := make(chan error, len(ops))
	for _, op := range ops {
		op := op
		go func() { done <- op() }()
	}
	for range ops {
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("an operation issued alongside the oversized key never completed")
		}
	}
}

// TestLocalLargeValuesFitFrameCap pins the invariant that every mesh frame
// a sender builds fits the receiver's cap. A rejected frame drops its link
// and lanes never resend, so a put whose frame is too large never
// completes. Concurrent 1 MiB puts on distinct keys coalesce into
// multi-frames that must split by payload, and a put of the largest value
// the client protocol carries must fit with its keyed-frame headers.
func TestLocalLargeValuesFitFrameCap(t *testing.T) {
	// Two processes hold the test's memory down: every process keeps every
	// value, relays each WRITE, and keeps a link's largest frame buffered.
	lc, err := StartLocal(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	nd := lc.Proc(0, 0).Node()

	const puts = 24
	mib := bytes.Repeat([]byte{'m'}, 1<<20)
	done := make(chan error, puts+1)
	for i := 0; i < puts; i++ {
		key := fmt.Sprintf("big%d", i)
		go func() { done <- nd.Put(key, mib) }()
	}
	go func() { done <- nd.Put("max", make([]byte, wire.MaxValueLen)) }()
	for i := 0; i < puts+1; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d of %d large puts never completed", puts+1-i, puts+1)
		}
	}
	for i := 0; i < 2; i++ {
		if n := lc.Proc(0, i).MeshStats().DecodeErrors; n != 0 {
			t.Fatalf("process %d counted %d decode errors", i, n)
		}
	}
	v, err := lc.Proc(0, 1).Node().Get("big7")
	if err != nil || !bytes.Equal(v, mib) {
		t.Fatalf("read back a %d-byte value, err %v", len(v), err)
	}
}

// TestStalledPeerDoesNotWedgeQuorum points member 2's mesh address at a
// listener that accepts and never reads: a peer that stays connected but
// stops reading, as a stopped process, a paused VM or a partition without
// a reset leaves it. Members 0 and 1 form a quorum, so puts through them
// must keep completing after the sockets toward member 2 fill, and Kill
// must still return. A blocking write toward member 2 on the event loop
// would wedge both.
func TestStalledPeerDoesNotWedgeQuorum(t *testing.T) {
	// A small receive buffer on the stalled side makes the sockets fill
	// after a few MiB instead of tens of them.
	lc := net.ListenConfig{Control: func(_, _ string, c syscall.RawConn) error {
		var err error
		if cerr := c.Control(func(fd uintptr) {
			err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 64<<10)
		}); cerr != nil {
			return cerr
		}
		return err
	}}
	stall, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			c, err := stall.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()

	addrs := reserveAddrs(t, 4)
	peers := []string{addrs[0], addrs[1], stall.Addr().String()}
	live := make([]*Process, 2)
	for id := range live {
		// A short queue bounds what the live members buffer toward the
		// stalled one; it plays no part in the fault.
		p, err := StartProcess(ProcessConfig{Shards: 1, ID: id, Peers: peers, Client: addrs[2+id],
			Mesh: []transport.MeshOption{transport.WithQueueCap(64)}})
		if err != nil {
			t.Fatalf("start process %d: %v", id, err)
		}
		live[id] = p
		t.Cleanup(p.Kill)
	}
	// Registered last, so it runs first: closing the stalled side resets
	// its connections and frees a wedged writer before the Kills run.
	t.Cleanup(func() {
		stall.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})

	// 400 distinct keys of 64 KiB each: every put sends a fresh WRITE
	// toward member 2 from both live members, about 50 MiB in all.
	val := bytes.Repeat([]byte{'s'}, 64<<10)
	const puts = 400
	for i := 0; i < puts; i++ {
		p := live[i%2]
		done := make(chan error, 1)
		go func() { done <- p.Node().Put(fmt.Sprintf("k%d", i), val) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("put %d of %d stalled behind the non-reading peer", i, puts)
		}
	}
	// The sockets toward member 2 did fill: frames toward it were dropped.
	var dropped int64
	for _, p := range live {
		dropped += p.MeshStats().FramesDropped
	}
	if dropped == 0 {
		t.Fatal("no frame toward the stalled peer was dropped; the probe never filled its sockets")
	}
	t.Logf("%d puts done; %d frames toward the stalled peer dropped", puts, dropped)
	for id, p := range live {
		done := make(chan struct{})
		go func() { p.Kill(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Kill of process %d hung", id)
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"twobitreg/internal/cluster"
	"twobitreg/internal/proto"
	"twobitreg/internal/regmap"
	"twobitreg/internal/storage"
)

func TestSeededInputs(t *testing.T) {
	w := workloads[0]
	if !reflect.DeepEqual(makeKeys(7, w), makeKeys(7, w)) {
		t.Fatal("same seed drew different keys")
	}
	if reflect.DeepEqual(makeKeys(7, w), makeKeys(8, w)) {
		t.Fatal("different seeds drew the same keys")
	}
	draw := func(seed int64, worker int) (out [64][2]int) {
		s := newOpStream(seed, w, worker)
		for i := range out {
			k, r := s.next()
			out[i] = [2]int{k, map[bool]int{false: 0, true: 1}[r]}
		}
		return out
	}
	if draw(7, 0) != draw(7, 0) {
		t.Fatal("same seed and caller drew different operations")
	}
	if draw(7, 0) == draw(7, 1) || draw(7, 0) == draw(8, 0) {
		t.Fatal("operation streams do not depend on caller and seed")
	}
}

func TestValueCodec(t *testing.T) {
	for _, id := range []uint64{0, 1, opID(3, 12345), opID(preloadID, 4095)} {
		v := encodeValue(id)
		got, ok := decodeValue(v)
		if len(v) != valueLen || !ok || got != id {
			t.Fatalf("id %#x: encoded %q decoded %#x ok=%v", id, v, got, ok)
		}
	}
	for _, bad := range []string{"", "x000000000000000", "v00000000000000g", "v0000"} {
		if _, ok := decodeValue([]byte(bad)); ok {
			t.Fatalf("decoded %q", bad)
		}
	}
}

// TestGate feeds the correctness gate hand-made histories over one key.
func TestGate(t *testing.T) {
	keys := []string{"k"}
	pre := []opRec{{inv: 0, res: 10, val: opID(preloadID, 0)}}
	w0 := opRec{inv: 20, res: 30, val: opID(0, 0)}
	read := func(inv, res int64, val uint64) opRec {
		return opRec{inv: inv, res: res, val: val, read: true}
	}
	cases := []struct {
		name string
		recs [][]opRec
		bad  string
	}{
		{"fresh read", [][]opRec{{w0, read(40, 50, opID(0, 0))}}, ""},
		{"stale read", [][]opRec{{w0, read(40, 50, opID(preloadID, 0))}}, "mwmr"},
		{"unwritten value", [][]opRec{{w0, read(40, 50, opID(0, 7))}}, "never written"},
		{"undecodable value", [][]opRec{{w0, read(40, 50, noValue)}}, "never written"},
		{"read of a write", [][]opRec{{w0, read(40, 50, opID(0, 1))}}, "never written"},
	}
	for _, c := range cases {
		err := gate(keys, pre, &loadRun{recs: c.recs})
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad)):
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.bad)
		}
	}
}

// TestWrapperForwardsOptionalInterfaces pins the fidelity of the
// KeyedProcess wrapper: KeyedNode type-asserts proto.Flusher (the flush
// tick), IsWriter (the writer guard) and storage.Recoverable (restarts);
// a wrapper that hid them would silently change what the stack does.
func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	nd, err := regmap.NewNode(0, regmap.Config{N: 3, DefaultWriters: []int{0, 1, 2}, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(clock{}, 1)
	var p cluster.KeyedProcess = tr.taps().proc(0, nd)
	if _, ok := p.(proto.Flusher); !ok {
		t.Error("wrapper hides proto.Flusher")
	}
	if _, ok := p.(interface{ IsWriter(string, int) bool }); !ok {
		t.Error("wrapper hides IsWriter")
	}
	if _, ok := p.(storage.Recoverable); !ok {
		t.Error("wrapper hides storage.Recoverable")
	}
}

func runShort(t *testing.T, w workload, trace bool) *result {
	t.Helper()
	res, err := run(options{workload: w, seed: 11, seconds: 1.6, trace: trace, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.problems)
	}
	return res
}

// TestEndToEnd checks that a short untraced run of every workload passes
// its gate and prints every end-to-end metric, nonzero, with its unit.
func TestEndToEnd(t *testing.T) {
	g := loadGlossary()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runShort(t, w, false)
			if len(res.Metrics) != len(g.EndToEnd) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(g.EndToEnd))
			}
			for _, e := range g.EndToEnd {
				m, ok := res.Metrics[e.Name]
				if !ok || m.Unit != e.Unit || !(m.Value > 0) {
					t.Errorf("%s: got %+v (present %v), want a positive value in %s", e.Name, m, ok, e.Unit)
				}
			}
		})
	}
}

// TestDecomposition checks, on a short traced run of every workload, that
// the layers' mean times nest (regclient.op_us >= shard.handler_us >=
// regmap.op_us, so neither difference is negative), that every per-layer
// metric is printed with its unit, and that the layers each workload runs
// report work.
func TestDecomposition(t *testing.T) {
	g := loadGlossary()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runShort(t, w, true)
			for _, e := range g.PerLayer {
				m, ok := res.Metrics[e.Name]
				if !ok || m.Unit != e.Unit {
					t.Errorf("%s: got %+v (present %v), want unit %s", e.Name, m, ok, e.Unit)
				}
			}
			v := func(name string) float64 { return res.Metrics[name].Value }
			op, h, rm := v("regclient.op_us"), v("shard.handler_us"), v("regmap.op_us")
			if !(op >= h && h >= rm && rm > 0) {
				t.Errorf("times do not nest: regclient %.2f, shard %.2f, regmap %.2f", op, h, rm)
			}
			if v("regclient.session_us") < 0 || v("cluster.mailbox_wait_us") < 0 {
				t.Errorf("negative decomposition: session %.2f, mailbox %.2f", v("regclient.session_us"), v("cluster.mailbox_wait_us"))
			}
			for _, name := range []string{"transport.frames_per_op", "regmap.deliver_per_op", "cluster.events_per_burst", "runtime.allocs_per_op", "trace.ops_per_s"} {
				if !(v(name) > 0) {
					t.Errorf("%s = %g, want > 0", name, v(name))
				}
			}
			durable := []string{"storage.appends_per_op", "storage.syncs_per_op", "storage.sync_us", "storage.bytes_per_op"}
			for _, name := range durable {
				if got := v(name) > 0; got != w.wal {
					t.Errorf("%s = %g on a workload with wal=%v", name, v(name), w.wal)
				}
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// names the same workloads, reasons, metrics and units as glossary.json
// and the workload table.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	g := loadGlossary()
	if len(bench.Workloads) != len(workloads) || len(g.Workloads) != len(workloads) {
		t.Fatalf("workloads: BENCHMARK.json %d, glossary %d, table %d", len(bench.Workloads), len(g.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name || g.Workloads[i].Name != w.name || bench.Workloads[i].Why != g.Workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, glossary %q, table %q", i, bench.Workloads[i], g.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, a []struct{ Name, Unit string }, e []glossaryEntry) {
		if len(a) != len(e) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in glossary.json", kind, len(a), len(e))
			return
		}
		for i := range a {
			if a[i].Name != e[i].Name || a[i].Unit != e[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], glossary %s [%s]", kind, i, a[i].Name, a[i].Unit, e[i].Name, e[i].Unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, g.EndToEnd)
	same("per_layer", bench.PerLayer, g.PerLayer)
}

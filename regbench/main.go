// Command regbench is the end-to-end and per-layer benchmark of the sharded
// register service. One run boots the real stack (transport.Mesh,
// regmap.Node on cluster.KeyedNode, shard servers, optional FileWAL) over
// loopback in this process, preloads every key, drives it with closed-loop
// callers through regclient for the requested time, judges every key's
// history for linearizability, and prints its metrics, the last line of
// standard output being one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// wrappers installed. With --trace 1 the window is split into an untraced
// reference half and a traced half, and the metrics are the per-layer ones
// of the traced half plus the tracing overhead. glossary.json names every
// metric, its unit and its layer.
//
// Usage (from the root of the repository; run.sh builds and runs it):
//
//	bash regbench/run.sh --workload read-mostly --seed 1 --seconds 10 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

//go:embed glossary.json
var glossaryJSON []byte

type glossaryEntry struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Layer string `json:"layer"`
	Moves string `json:"moves,omitempty"`
	About string `json:"about"`
}

type glossary struct {
	Workloads []struct {
		Name  string `json:"name"`
		Shape string `json:"shape"`
		Why   string `json:"why"`
	} `json:"workloads"`
	EndToEnd []glossaryEntry `json:"end_to_end"`
	PerLayer []glossaryEntry `json:"per_layer"`
}

func loadGlossary() glossary {
	var g glossary
	if err := json.Unmarshal(glossaryJSON, &g); err != nil {
		panic("glossary.json: " + err.Error()) // embedded at build time
	}
	return g
}

// sessions is how many independently booted clusters an end-to-end run
// measures; every metric is the median over them. A first, warm-up
// session (heap growth, first page faults and listener set-up of a fresh
// process) is measured and gated like the others but left out of the
// medians.
const sessions = 7

// options are one invocation's flags.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // span dumps
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string // why Correct is false
	notes    []string // human-readable lines printed before the JSON
}

// set records a metric under its glossary unit.
func (r *result) set(g []glossaryEntry, name string, v float64) {
	for _, e := range g {
		if e.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: e.Unit}
			return
		}
	}
	panic("metric not in glossary.json: " + name)
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1: per-layer metrics from a traced run; 0: end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory for span dumps")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "regbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	res, err := run(options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "regbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "regbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func (r *result) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAIL:", p)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func run(o options) (*result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	res.notes = append(res.notes, fmt.Sprintf("workload %s seed %d seconds %g trace %t GOMAXPROCS %d",
		o.workload.name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0)))
	var err error
	if o.trace {
		err = runTraced(o, res)
	} else {
		err = runEndToEnd(o, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = len(res.problems) == 0
	return res, nil
}

// session is one booted, preloaded cluster and what its window recorded.
type session struct {
	w     workload
	keys  []string
	ck    clock
	st    *stack
	pre   []opRec
	run   *loadRun
	proc  procDelta
	marks []cpuMark // CPU time every sliceEvery through the window
	mesh  meshDelta
	setup time.Duration
}

// cpuMark is the process CPU time (user+sys) at one instant of a window.
type cpuMark struct {
	at  int64 // ns since the clock's base
	cpu time.Duration
}

// sliceEvery is the length of the slices an end-to-end window is cut into:
// cpu_us_per_op is a median over slices.
const sliceEvery = 100 * time.Millisecond

type meshDelta struct {
	frames, bytes, writes, dropped, decodeErrs int64
}

// boot starts a cluster (with taps) and preloads it.
func boot(o options, keys []string, ck clock, tp taps) (*session, error) {
	w := o.workload
	// At most nproc client connections: each client holds one session per
	// shard, and the in-flight callers share the clients.
	nclients := max(1, min(w.inflight, runtime.NumCPU()/w.shards))
	t0 := time.Now()
	st, err := bootStack(w.shards, w.procs, w.wal, tp, nclients)
	if err != nil {
		return nil, errors.Join(err, st.close())
	}
	s := &session{w: w, keys: keys, ck: ck, st: st}
	s.pre = preload(st, w, keys, ck)
	s.setup = time.Since(t0)
	return s, nil
}

// window drives the closed loop for d, sampling the process and mesh
// counters around it. open, when non-nil, is switched on for the window.
func (s *session) window(seed int64, d time.Duration, open func(bool)) {
	if open != nil {
		open(true)
	}
	m0 := s.st.meshStats()
	p0 := sampleProc()
	s.marks = []cpuMark{{s.ck.now(), p0.user + p0.sys}}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(sliceEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				u, sy := cpuTimes()
				s.marks = append(s.marks, cpuMark{s.ck.now(), u + sy})
			}
		}
	}()
	s.run = drive(s.st, s.w, s.keys, seed, s.ck, d)
	close(stop)
	<-sampled
	p1 := sampleProc()
	m1 := s.st.meshStats()
	if open != nil {
		open(false)
	}
	s.proc = diffProc(p0, p1)
	s.mesh = meshDelta{
		frames:     m1.FramesSent - m0.FramesSent,
		bytes:      m1.BytesSent - m0.BytesSent,
		writes:     m1.ConnWrites - m0.ConnWrites,
		dropped:    m1.FramesDropped - m0.FramesDropped,
		decodeErrs: m1.DecodeErrors,
	}
}

// finish closes the cluster and applies the correctness gate, counting the
// session's operations into res.
func (s *session) finish(res *result, label string) error {
	sendErrs := s.st.sendErrs.Load()
	if err := s.st.close(); err != nil {
		return fmt.Errorf("close %s cluster: %w", label, err)
	}
	res.Attempted += len(s.pre) + s.run.ops()
	for _, r := range s.pre {
		if r.failed {
			res.Failed++
		}
	}
	for _, rs := range s.run.recs {
		for _, r := range rs {
			if r.failed {
				res.Failed++
			}
		}
	}
	if err := gate(s.keys, s.pre, s.run); err != nil {
		res.fail("%s run: linearizability gate: %v", label, err)
	}
	if s.mesh.decodeErrs > 0 {
		res.fail("%s run: %d transport decode errors", label, s.mesh.decodeErrs)
	}
	if sendErrs > 0 {
		res.fail("%s run: %d Mesh.Send errors", label, sendErrs)
	}
	return nil
}

// e2e holds the throughput of one whole window.
type e2e struct {
	ops     int
	opsPerS float64
}

func endToEnd(s *session) e2e {
	n := s.run.ops()
	return e2e{ops: n, opsPerS: float64(n) / (float64(s.run.end-s.run.start) / 1e9)}
}

// latencies returns the window's completion times and client-observed
// latencies in µs, in completion order: all operations, reads, writes.
func (s *session) latencies() (done []int64, all, reads, writes []float64) {
	var recs []opRec
	for _, rs := range s.run.recs {
		recs = append(recs, rs...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].res < recs[j].res })
	for _, r := range recs {
		us := float64(r.res-r.inv) / 1e3
		done = append(done, r.res)
		all = append(all, us)
		if r.read {
			reads = append(reads, us)
		} else {
			writes = append(writes, us)
		}
	}
	return done, all, reads, writes
}

// slices returns, for each whole slice between consecutive CPU marks, the
// completion rate (ops/s) and the CPU per completed op (µs); done holds the
// window's completion times in order.
func (s *session) slices(done []int64) (rates, cpuPerOp []float64) {
	i := 0
	for k := 1; k < len(s.marks); k++ {
		a, b := s.marks[k-1], s.marks[k]
		for i < len(done) && done[i] < a.at {
			i++
		}
		n := 0
		for i < len(done) && done[i] < b.at {
			n++
			i++
		}
		if n == 0 {
			continue // a stall with nothing completing has no CPU per op
		}
		rates = append(rates, float64(n)/(float64(b.at-a.at)/1e9))
		cpuPerOp = append(cpuPerOp, float64(b.cpu-a.cpu)/1e3/float64(n))
	}
	return rates, cpuPerOp
}

// runEndToEnd runs a warm-up session and then sessions independent
// sessions, each booting and preloading a fresh cluster and measuring an
// untraced window of an equal share of the run. cpu_us_per_op is the
// median over the sliceEvery slices of all measured sessions, so that a
// burst of interference from outside the process (a stolen vCPU, say)
// does not move it; the other metrics are medians over the measured
// sessions of each session's figure. Only these summaries outlive a
// session, so the harness's heap does not grow across sessions.
//
// Throughput and the p99 latency are printed per session but are not
// end-to-end metrics: on a shared host, vCPU steal moved write-durable's
// throughput by up to 30% between runs where cpu_us_per_op moved by 8%,
// and moved the p99 by more than any bound allows.
func runEndToEnd(o options, res *result) error {
	g := loadGlossary()
	ck := clock{base: time.Now()}
	keys := makeKeys(o.seed, o.workload)
	per := time.Duration(o.seconds * float64(time.Second) / (sessions + 1))
	var cpus, setups, p50s, readP50s, writeP50s []float64
	ops := 0
	for i := -1; i < sessions; i++ {
		s, err := boot(o, keys, ck, taps{})
		if err != nil {
			return err
		}
		// Each session draws its own operation streams.
		s.window(o.seed+int64(i)<<32, per, nil)
		if err := s.finish(res, fmt.Sprintf("session %d", i)); err != nil {
			return err
		}
		m := endToEnd(s)
		done, all, reads, writes := s.latencies()
		r, c := s.slices(done)
		p50, p99 := median(all), quantile(all, 0.99)
		res.notes = append(res.notes, fmt.Sprintf("session %d: %d ops, %.0f ops/s, p50 %.1f us, p99 %.1f us, cpu %.1f us/op, setup %.4f s",
			i, m.ops, median(r), p50, p99, median(c), s.setup.Seconds()))
		if i < 0 {
			continue // warm-up
		}
		ops += m.ops
		cpus = append(cpus, c...)
		setups = append(setups, s.setup.Seconds())
		p50s = append(p50s, p50)
		readP50s = append(readP50s, median(reads))
		writeP50s = append(writeP50s, median(writes))
	}
	res.set(g.EndToEnd, "p50_us", median(p50s))
	res.set(g.EndToEnd, "read_p50_us", median(readP50s))
	res.set(g.EndToEnd, "write_p50_us", median(writeP50s))
	res.set(g.EndToEnd, "cpu_us_per_op", median(cpus))
	res.set(g.EndToEnd, "setup_s", median(setups))
	res.notes = append(res.notes, fmt.Sprintf("%d ops in %d measured sessions, err_frac %g",
		ops, sessions, ratio(float64(res.Failed), float64(res.Attempted))))
	return nil
}

// fidelityTolerance is how far the traced half may stray from the untraced
// reference on counts the wrappers must not change.
const fidelityTolerance = 0.25

// runTraced measures, after an unreported warm-up session, an untraced
// reference half and a traced half, each on its own freshly booted
// cluster, and reports the per-layer metrics of the traced half.
func runTraced(o options, res *result) error {
	g := loadGlossary()
	ck := clock{base: time.Now()}
	keys := makeKeys(o.seed, o.workload)
	n := o.workload.shards * o.workload.procs
	total := o.seconds * float64(time.Second)
	half := time.Duration(total * sessions / (sessions + 1) / 2)

	ws, err := boot(o, keys, ck, taps{})
	if err != nil {
		return err
	}
	ws.window(o.seed-1<<32, time.Duration(total/(sessions+1)), nil)
	if err := ws.finish(res, "warm-up"); err != nil {
		return err
	}

	ref := newTracer(ck, n)
	rs, err := boot(o, keys, ck, ref.syncCounter())
	if err != nil {
		return err
	}
	rs.window(o.seed, half, ref.open.Store)
	if err := rs.finish(res, "untraced reference"); err != nil {
		return err
	}

	tr := newTracer(ck, n)
	ts, err := boot(o, keys, ck, tr.taps())
	if err != nil {
		return err
	}
	ts.window(o.seed, half, tr.open.Store)
	if err := ts.finish(res, "traced"); err != nil {
		return err
	}

	refM, trM := endToEnd(rs), endToEnd(ts)
	l := layerFigures(tr, ts)
	set := func(name string, v float64) { res.set(g.PerLayer, name, v) }
	for _, f := range l {
		set(f.name, f.value)
	}
	set("trace.ops_per_s", trM.opsPerS)
	set("trace.untraced_ops_per_s", refM.opsPerS)
	set("trace.overhead_frac", 1-ratio(trM.opsPerS, refM.opsPerS))

	// Wrapper fidelity: the wrappers must not change what the stack does.
	refFrames := ratio(float64(rs.mesh.frames), float64(refM.ops))
	refSyncs := ratio(float64(syncs(ref)), float64(refM.ops))
	for _, c := range []struct {
		name       string
		ref, trace float64
	}{
		{"transport.frames_per_op", refFrames, res.Metrics["transport.frames_per_op"].Value},
		{"storage.syncs_per_op", refSyncs, res.Metrics["storage.syncs_per_op"].Value},
	} {
		res.notes = append(res.notes, fmt.Sprintf("fidelity %s: untraced %.4f traced %.4f", c.name, c.ref, c.trace))
		if math.Abs(c.trace-c.ref) > fidelityTolerance*c.ref {
			res.fail("wrapper fidelity: %s traced %.4f vs untraced %.4f (tolerance %g)", c.name, c.trace, c.ref, fidelityTolerance)
		}
	}
	// Decomposition: the layers' mean times must nest.
	op, h, rm := res.Metrics["regclient.op_us"].Value, res.Metrics["shard.handler_us"].Value, res.Metrics["regmap.op_us"].Value
	if !(op >= h && h >= rm) {
		res.fail("decomposition: regclient.op_us %.3f >= shard.handler_us %.3f >= regmap.op_us %.3f does not hold", op, h, rm)
	}

	dir := filepath.Join(o.outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", o.workload.name, o.seed))
	if err := tr.writeSpans(path, ts.run); err != nil {
		return err
	}
	res.notes = append(res.notes, fmt.Sprintf("spans: %d kept, %d beyond the cap, written to %s", len(tr.spans.spans), tr.spans.dropped, path))
	for _, e := range g.PerLayer {
		res.notes = append(res.notes, fmt.Sprintf("%-32s %14.4f %s", e.Name, res.Metrics[e.Name].Value, e.Unit))
	}
	return nil
}

func syncs(tr *tracer) (n int64) {
	for _, s := range tr.stores {
		if s != nil {
			n += s.syncs
		}
	}
	return n
}

type figure struct {
	name  string
	value float64
}

// layerFigures computes the per-layer metrics of a traced session. The
// per-process accumulators are read here, after the session's stack was
// closed.
func layerFigures(tr *tracer, s *session) []figure {
	m := endToEnd(s)
	ops := float64(m.ops)
	var opNs, wrong float64
	for _, rs := range s.run.recs {
		for _, r := range rs {
			opNs += float64(r.res - r.inv)
			if r.wrong {
				wrong++
			}
		}
	}
	var starts, delivers, bursts, busyNs, done, doneNs, reads, rounds, fast float64
	for _, p := range tr.procs {
		starts += float64(p.starts)
		delivers += float64(p.delivers)
		bursts += float64(p.bursts)
		busyNs += float64(p.busyNs)
		done += float64(p.done)
		doneNs += float64(p.doneNs)
		reads += float64(p.reads)
		rounds += float64(p.readRounds)
		fast += float64(p.fast)
	}
	var sendNs float64
	for _, t := range tr.sends {
		sendNs += float64(t.ns)
	}
	var appends, appendBytes, nsyncs, useful, syncNs float64
	var syncDur []float64
	for _, t := range tr.stores {
		if t == nil {
			continue
		}
		appends += float64(t.appends)
		appendBytes += float64(t.appendBytes)
		nsyncs += float64(t.syncs)
		useful += float64(t.useful)
		syncNs += float64(t.syncNs)
		syncDur = append(syncDur, t.syncDur...)
	}
	opUs := ratio(opNs/1e3, ops)
	_, all, _, _ := s.latencies()
	handlerUs := ratio(float64(tr.handler.ns.Load())/1e3, float64(tr.handler.n.Load()))
	regmapUs := ratio(doneNs/1e3, done)
	cpu := float64(s.proc.cpu)
	return []figure{
		{"regclient.op_us", opUs},
		{"regclient.p99_us", quantile(all, 0.99)},
		{"regclient.session_us", opUs - handlerUs},
		{"shard.handler_us", handlerUs},
		{"shard.wrong_shard", wrong},
		{"cluster.mailbox_wait_us", handlerUs - regmapUs},
		{"cluster.events_per_burst", ratio(starts+delivers, bursts)},
		{"cluster.bursts_per_op", ratio(bursts, ops)},
		{"regmap.op_us", regmapUs},
		{"regmap.step_us_per_op", ratio(busyNs/1e3, ops)},
		{"regmap.deliver_per_op", ratio(delivers, ops)},
		{"regmap.read_rounds", ratio(rounds, reads)},
		{"regmap.fast_read_frac", ratio(fast, reads)},
		{"transport.frames_per_op", ratio(float64(s.mesh.frames), ops)},
		{"transport.bytes_per_op", ratio(float64(s.mesh.bytes), ops)},
		{"transport.conn_writes_per_op", ratio(float64(s.mesh.writes), ops)},
		{"transport.frames_per_write", ratio(float64(s.mesh.frames), float64(s.mesh.writes))},
		{"transport.send_us_per_op", ratio(sendNs/1e3, ops)},
		{"transport.deliver_us_per_op", ratio(float64(tr.deliver.ns.Load())/1e3, ops)},
		{"transport.frames_dropped", float64(s.mesh.dropped)},
		{"transport.decode_errors", float64(s.mesh.decodeErrs)},
		{"storage.appends_per_op", ratio(appends, ops)},
		{"storage.syncs_per_op", ratio(nsyncs, ops)},
		{"storage.sync_us", ratio(syncNs/1e3, nsyncs)},
		{"storage.sync_p99_us", quantile(syncDur, 0.99) / 1e3},
		{"storage.sync_useful_frac", ratio(useful, nsyncs)},
		{"storage.bytes_per_op", ratio(appendBytes, ops)},
		{"runtime.allocs_per_op", ratio(float64(s.proc.allocs), ops)},
		{"runtime.alloc_bytes_per_op", ratio(float64(s.proc.allocByte), ops)},
		{"runtime.gc_cpu_frac", ratio(s.proc.gcCPU*1e9, cpu)},
		{"runtime.sys_cpu_frac", ratio(float64(s.proc.sys), cpu)},
		{"runtime.sched_latency_p99_us", s.proc.schedP99 * 1e6},
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/automaton"
	"repro/internal/chemo"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/pattern"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/wal"
)

// perLayer are the traced-run metrics, in print order.
var perLayer = []metricDef{
	{"server.http.self_ns_per_event", "ns"},
	{"server.ingest.ns_per_event", "ns"},
	{"server.ingest.allocs_per_event", "count"},
	{"server.route.delivered_frac", "frac"},
	{"server.mailbox.depth_max", "blocks"},
	{"server.matches.ns_per_match", "ns"},
	{"server.register.ms_per_query", "ms"},
	{"automaton.compile.us_per_query", "us"},
	{"wal.append.ns_per_event", "ns"},
	{"wal.append.bytes_per_event", "bytes"},
	{"wal.append.batch_p99_us", "us"},
	{"engine.decode.ns_per_event", "ns"},
	{"engine.decode.allocs_per_event", "count"},
	{"engine.step.ns_per_event", "ns"},
	{"engine.step.allocs_per_event", "count"},
	{"engine.step.omega_iters_per_event", "count"},
	{"engine.step.max_omega", "count"},
	{"engine.step.filtered_frac", "frac"},
	{"engine.agg.ns_per_event", "ns"},
	{"engine.match_json.ns_per_match", "ns"},
	{"engine.match_json.bytes_per_match", "bytes"},
	{"engine.snapshot.us", "us"},
	{"engine.snapshot.bytes", "bytes"},
	{"engine.sharded.ns_per_event", "ns"},
	{"engine.sharded.heap_bytes_per_key", "bytes"},
	{"engine.sharded.release_hold_events_p50", "events"},
	{"cluster.ingest.self_ns_per_event", "ns"},
	{"cluster.split.skew", "ratio"},
	{"cluster.merge.hold_ms_p50", "ms"},
	{"cluster.merge.hold_ms_p99", "ms"},
	{"cluster.split_divergence", "count"},
	{"bench.gen.late_p99_ms", "ms"},
	{"bench.trace.overhead_frac", "frac"},
}

// span is one timed call into a layer. Spans of one ingest batch share
// the batch index as trace id; parent is the id of the span that
// caused it (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A
// disabled tracer records nothing (the spans-off side of the overhead
// measurement).
type tracer struct {
	mu    sync.Mutex
	off   bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, trace, parent int) int {
	if t.off {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) int64 { return t.totalBelow(name, math.MaxInt) }

// totalBelow sums the durations of the named spans of traces below n.
func (t *tracer) totalBelow(name string, n int) int64 {
	var sum int64
	for _, s := range t.spans {
		if s.Name == name && s.Trace < n {
			sum += s.dur()
		}
	}
	return sum
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children's intervals cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max64(c.Start, reach), min64(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// pacedSeconds bounds the paced stages (Server.Ingest and the HTTP
// handler), which replay the open-loop schedule in real time.
const pacedSeconds = 4

// traced is one in-process traced run over the open-loop prefix of the
// run's stream.
type traced struct {
	p       *prepared
	events  []event.Event // the traced prefix
	batches []batch
	paced   []batch // the prefix the paced stages replay
	tr      *tracer
	dir     string
	m       map[string]float64
	ops     tally
	log     io.Writer
}

// tracedRun feeds the open-loop batches through each layer's public
// functions as cumulative stages, records a span around every call,
// writes the spans to workDir and fills metrics.
func tracedRun(p *prepared, workDir string, metrics map[string]float64, log io.Writer) (tally, error) {
	t := &traced{
		p:       p,
		events:  p.s.events[:p.s.phaseEnd[0]],
		batches: p.s.batches[:p.s.openEnd()],
		tr:      newTracer(),
		dir:     filepath.Join(workDir, fmt.Sprintf("traced-%d", os.Getpid())),
		m:       metrics,
		log:     log,
	}
	defer os.RemoveAll(t.dir)
	t.paced = t.batches
	if n := int(p.w.openRate * pacedSeconds); n < len(t.paced) {
		t.paced = t.paced[:n]
	}
	stages := []struct {
		name string
		run  func() error
	}{
		{"decode", t.decode}, {"wal", t.wal}, {"compile", t.compile}, {"ingest", t.ingest},
		{"step", t.step}, {"sharded", t.sharded}, {"handler", t.handler}, {"cluster", t.cluster},
	}
	for _, st := range stages {
		t0 := time.Now()
		if err := st.run(); err != nil {
			return t.ops, fmt.Errorf("traced stage %s: %w", st.name, err)
		}
		fmt.Fprintf(log, "traced stage %s: %.2fs\n", st.name, time.Since(t0).Seconds())
	}
	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.json", p.w.name, os.Getpid()))
	raw, err := json.Marshal(t.tr.spans)
	if err != nil {
		return t.ops, err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return t.ops, err
	}
	fmt.Fprintf(log, "traced run: %d spans written to %s\n", len(t.tr.spans), path)
	return t.ops, nil
}

// perEvent divides a total by the traced event count.
func (t *traced) perEvent(v float64) float64 { return v / float64(len(t.events)) }

// perPacedEvent divides a total by the paced prefix's event count.
func (t *traced) perPacedEvent(v float64) float64 {
	return v / float64(t.paced[len(t.paced)-1].hi)
}

// pace replays batches on the open-loop schedule and returns how late
// the generator ran.
func (t *traced) pace(batches []batch, send func(bi int, b batch) error) ([]float64, error) {
	return openLoop(time.Now(), len(batches), t.p.w.openRate, func(i int, _ time.Time) error {
		return send(i, batches[i])
	})
}

// decode is stage 1: the NDJSON block decoder.
func (t *traced) decode() error {
	dec := engine.NewBlockDecoder(chemo.Schema())
	m0 := mallocs()
	for bi, b := range t.batches {
		id := t.tr.begin("engine.decode", bi, 0)
		dec.Reset()
		for n, line := range bytes.Split(bytes.TrimSuffix(b.body, []byte{'\n'}), []byte{'\n'}) {
			dec.Add(n+1, line)
		}
		_, err := dec.Finish()
		t.tr.end(id)
		if err != nil {
			return fmt.Errorf("decode batch %d: %w", bi, err)
		}
	}
	t.m["engine.decode.allocs_per_event"] = t.perEvent(float64(mallocs() - m0))
	t.m["engine.decode.ns_per_event"] = t.perEvent(float64(t.tr.total("engine.decode")))
	return nil
}

// wal is stage 2: the durable log with the default interval fsync.
func (t *traced) wal() error {
	fsync, _ := wal.ParseFsyncPolicy("interval")
	l, err := wal.Open(wal.Options{Dir: filepath.Join(t.dir, "wal"), Schema: chemo.Schema(), Fsync: fsync})
	if err != nil {
		return err
	}
	var per []float64
	for bi, b := range t.batches {
		id := t.tr.begin("wal.append", bi, 0)
		t0 := time.Now()
		_, err := l.AppendBatch(t.events[b.lo:b.hi])
		per = append(per, float64(time.Since(t0).Microseconds()))
		t.tr.end(id)
		if err != nil {
			l.Close()
			return err
		}
	}
	size := l.SizeBytes()
	if err := l.Close(); err != nil {
		return err
	}
	t.m["wal.append.ns_per_event"] = t.perEvent(float64(t.tr.total("wal.append")))
	t.m["wal.append.bytes_per_event"] = t.perEvent(float64(size))
	t.m["wal.append.batch_p99_us"] = quantile(per, tailRank(len(per)))
	return nil
}

// compile times query compilation alone (parse, variant expansion,
// automaton construction), the part of registration that is the
// automaton/query layer.
func (t *traced) compile() error {
	t0 := time.Now()
	for _, spec := range t.p.w.queries {
		pat, err := query.Parse(spec.Query)
		if err != nil {
			return err
		}
		vs, err := pattern.ExpandOptionals(pat)
		if err != nil {
			return err
		}
		if _, err := automaton.Compile(vs[0], chemo.Schema()); err != nil {
			return err
		}
	}
	t.m["automaton.compile.us_per_query"] = float64(time.Since(t0).Microseconds()) / float64(len(t.p.w.queries))
	return nil
}

// newServer builds a WAL-less server with the workload's registrations
// and reports the registration time.
func (t *traced) newServer() (*server.Server, time.Duration, error) {
	s, err := server.New(server.Config{Schema: chemo.Schema()})
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	for _, q := range t.p.w.queries {
		spec := server.QuerySpec{ID: q.ID, Query: q.Query, Filter: q.Filter, Key: q.Key}
		if _, err := s.AddQuery(spec); err != nil {
			s.Close()
			return nil, 0, err
		}
	}
	return s, time.Since(t0), nil
}

// ingest is stage 3: Server.Ingest on a server without WAL, on the
// open-loop schedule, covering validation, routing and mailbox enqueue
// (the pipelines step concurrently; their allocations count toward the
// stage).
func (t *traced) ingest() error {
	s, reg, err := t.newServer()
	if err != nil {
		return err
	}
	defer s.Close()
	t.m["server.register.ms_per_query"] = float64(reg.Microseconds()) / 1e3 / float64(len(t.p.w.queries))
	depth := 0
	m0 := mallocs()
	_, err = t.pace(t.paced, func(bi int, b batch) error {
		evs := append([]event.Event(nil), t.events[b.lo:b.hi]...)
		id := t.tr.begin("server.ingest", bi, 0)
		_, err := s.Ingest(evs)
		t.tr.end(id)
		for _, qi := range s.Queries() {
			if qi.QueueDepth > depth {
				depth = qi.QueueDepth
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	t.m["server.ingest.allocs_per_event"] = t.perPacedEvent(float64(mallocs() - m0))
	t.m["server.ingest.ns_per_event"] = t.perPacedEvent(float64(t.tr.total("server.ingest")))
	t.m["server.mailbox.depth_max"] = float64(depth)
	if err := s.Drain(context.Background()); err != nil {
		return err
	}
	var delivered int64
	for _, qi := range s.Queries() {
		delivered += qi.Events
	}
	events := t.paced[len(t.paced)-1].hi
	t.m["server.route.delivered_frac"] = float64(delivered) / float64(events*len(t.p.w.queries))
	return nil
}

// routedBlocks returns, per batch, the block of events the server
// delivers to q (nil for none).
func (t *traced) routedBlocks(q *compiledQuery) []event.Block {
	rt := newRouter(q.auto)
	out := make([]event.Block, len(t.batches))
	for bi, b := range t.batches {
		var idx []int32
		for i := b.lo; i < b.hi; i++ {
			if rt.deliver(&t.events[i]) {
				idx = append(idx, int32(i-b.lo))
			}
		}
		if len(idx) > 0 {
			out[bi] = event.Block{Events: t.events[b.lo:b.hi], Idx: idx}
		}
	}
	return out
}

// canonical compiles a traced-only stand-in query for a layer the
// workload's own registrations do not exercise.
func canonical(spec querySpec) (*compiledQuery, error) {
	qs, err := compileQueries([]querySpec{spec}, chemo.Schema())
	if err != nil {
		return nil, err
	}
	return qs[0], nil
}

// stepTotals accumulates the engine counters of the step stage.
type stepTotals struct {
	mallocs     uint64
	metrics     engine.Metrics
	snapNs      int64
	snapBytes   int
	snaps       int
	jsonBytes   int
	jsonMatches int
}

// stepQuery steps q's routed blocks the way the server evaluates it:
// one runner with StepBlock, or for a keyed query one runner per key.
// Every span is named name; matches are encoded and runners
// snapshotted at the server's checkpoint cadence outside those spans.
func (t *traced) stepQuery(q *compiledQuery, name string, tot *stepTotals) error {
	const checkpointEvery = 256 // the server's default cadence
	newRunner := func() *engine.Runner {
		var ag *engine.Aggregator
		if q.plan != nil {
			ag = engine.NewAggregator(q.plan)
		}
		return engine.New(q.auto, q.runnerOptions(ag)...)
	}
	var single *engine.Runner
	perKey := make(map[event.Value]*engine.Runner)
	if q.spec.Key == "" {
		single = newRunner()
	}
	schema := chemo.Schema()
	sinceSnap := 0
	var out []engine.Match
	m0 := mallocs()
	var encodeAllocs uint64
	for bi, blk := range t.routedBlocks(q) {
		if blk.Events == nil {
			continue
		}
		last := single
		id := t.tr.begin(name, bi, 0)
		if single != nil {
			ms, err := single.StepBlock(blk)
			if err != nil {
				t.tr.end(id)
				return err
			}
			out = append(out[:0], ms...)
		} else {
			out = out[:0]
			for i := 0; i < blk.Len(); i++ {
				e := blk.At(i)
				r := perKey[e.Attrs[0]]
				if r == nil {
					r = newRunner()
					perKey[e.Attrs[0]] = r
				}
				ms, err := r.Step(e)
				if err != nil {
					t.tr.end(id)
					return err
				}
				out = append(out, ms...)
				last = r
			}
		}
		t.tr.end(id)
		a0 := mallocs()
		if len(out) > 0 {
			id := t.tr.begin("engine.match_json", bi, 0)
			for _, m := range out {
				b, err := engine.MatchJSON(m, schema)
				if err != nil {
					return err
				}
				tot.jsonBytes += len(b)
			}
			t.tr.end(id)
			tot.jsonMatches += len(out)
		}
		if sinceSnap += blk.Len(); sinceSnap >= checkpointEvery {
			sinceSnap = 0
			id := t.tr.begin("engine.snapshot", bi, 0)
			t0 := time.Now()
			b, err := last.SnapshotBytes()
			tot.snapNs += time.Since(t0).Nanoseconds()
			t.tr.end(id)
			if err != nil {
				return err
			}
			tot.snapBytes += len(b)
			tot.snaps++
		}
		encodeAllocs += mallocs() - a0
	}
	if q.plan == nil {
		tot.mallocs += mallocs() - m0 - encodeAllocs
	}
	if single != nil {
		tot.metrics.Merge(single.Metrics())
	}
	for _, r := range perKey {
		tot.metrics.Merge(r.Metrics())
	}
	return nil
}

// step is stages 4 and 5: every query's runners stepping its routed
// blocks, with snapshots at the checkpoint cadence and match encoding;
// aggregate-only queries are timed apart. Where the workload registers
// no aggregate query a traced-only Q1 count stands in.
func (t *traced) step() error {
	var plain, aggs []*compiledQuery
	present := distinctValues(t.events, autosOf(t.p.qs))
	for _, q := range t.p.qs {
		switch {
		case !present.reachable(q.auto.RouteKeys()):
		case q.plan != nil:
			aggs = append(aggs, q)
		default:
			plain = append(plain, q)
		}
	}
	if len(aggs) == 0 {
		key := ""
		if t.p.w.keyed() {
			key = "ID"
		}
		q, err := canonical(querySpec{ID: "q1count", Query: textQ1 + "\nAGGREGATE count", Filter: true, Key: key})
		if err != nil {
			return err
		}
		aggs = append(aggs, q)
	}
	var tot, aggTot stepTotals
	for _, q := range plain {
		if err := t.stepQuery(q, "engine.step", &tot); err != nil {
			return err
		}
	}
	for _, q := range aggs {
		if err := t.stepQuery(q, "engine.agg", &aggTot); err != nil {
			return err
		}
	}
	tot.snaps += aggTot.snaps
	tot.snapNs += aggTot.snapNs
	tot.snapBytes += aggTot.snapBytes
	mt := tot.metrics
	t.m["engine.step.ns_per_event"] = t.perEvent(float64(t.tr.total("engine.step")))
	t.m["engine.step.allocs_per_event"] = t.perEvent(float64(tot.mallocs))
	t.m["engine.step.omega_iters_per_event"] = t.perEvent(float64(mt.InstanceIterations))
	t.m["engine.step.max_omega"] = float64(mt.MaxSimultaneousInstances)
	t.m["engine.step.filtered_frac"] = float64(mt.EventsFiltered) / float64(max64(mt.EventsProcessed, 1))
	t.m["engine.agg.ns_per_event"] = t.perEvent(float64(t.tr.total("engine.agg")))
	t.m["engine.match_json.ns_per_match"] = float64(t.tr.total("engine.match_json")) / float64(max64(int64(tot.jsonMatches), 1))
	t.m["engine.match_json.bytes_per_match"] = float64(tot.jsonBytes) / float64(max64(int64(tot.jsonMatches), 1))
	t.m["engine.snapshot.us"] = float64(tot.snapNs) / 1e3 / float64(max64(int64(tot.snaps), 1))
	t.m["engine.snapshot.bytes"] = float64(tot.snapBytes) / float64(max64(int64(tot.snaps), 1))
	return nil
}

// sharded is stage 4 for keyed queries: the sharded executor over the
// routed blocks, the per-key runners' retained heap, and how many
// input events a keyed match waits between its release trigger and
// its release.
func (t *traced) sharded() error {
	var keyed []*compiledQuery
	for _, q := range t.p.qs {
		if q.spec.Key != "" {
			keyed = append(keyed, q)
		}
	}
	if len(keyed) == 0 {
		q, err := canonical(querySpec{ID: "q1", Query: textQ1, Key: "ID"})
		if err != nil {
			return err
		}
		keyed = append(keyed, q)
	}
	var (
		keys    int
		heap    int64
		holds   []float64
		shardNs int64
	)
	for _, q := range keyed {
		blocks := t.routedBlocks(q)
		shr, err := engine.NewSharded(q.auto, q.spec.Key, 0, q.runnerOptions(nil)...)
		if err != nil {
			return err
		}
		in := make(chan event.Block)
		ctx, cancel := context.WithCancel(context.Background())
		t0 := time.Now()
		out, err := shr.RunBlocks(ctx, in)
		if err != nil {
			cancel()
			return err
		}
		go func() {
			defer close(in)
			for _, blk := range blocks {
				if blk.Events == nil {
					continue
				}
				select {
				case in <- blk:
				case <-ctx.Done(): // the executor stopped early
					return
				}
			}
		}()
		for range out {
		}
		shardNs += time.Since(t0).Nanoseconds()
		cancel()
		if err := shr.Err(); err != nil {
			return err
		}

		// Retained per-key state: the same runners the executor keeps,
		// stepped synchronously. Their heap is what a collection frees
		// once they die, so memory that other stages release meanwhile
		// does not count. A per-key runner emits a match with its key's
		// next event: the input events from the match's release trigger
		// to that event are its hold (the merge's watermark hold comes
		// on top).
		perKey := make(map[event.Value]*engine.Runner)
		for _, blk := range blocks {
			for i := 0; i < blk.Len(); i++ {
				e := blk.At(i)
				r := perKey[e.Attrs[0]]
				if r == nil {
					r = engine.New(q.auto, q.runnerOptions(nil)...)
					perKey[e.Attrs[0]] = r
				}
				ms, err := r.Step(e)
				if err != nil {
					return err
				}
				for _, m := range ms {
					trigger := triggerIndex(t.p.s.events, m.First+event.Time(q.auto.Within))
					holds = append(holds, float64(e.Seq-trigger))
				}
			}
		}
		keys += len(perKey)
		var live, freed runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&live)
		runtime.KeepAlive(perKey) // the runners die here
		runtime.GC()
		runtime.ReadMemStats(&freed)
		heap += int64(live.HeapAlloc) - int64(freed.HeapAlloc)
	}
	t.m["engine.sharded.ns_per_event"] = t.perEvent(float64(shardNs))
	t.m["engine.sharded.heap_bytes_per_key"] = float64(heap) / float64(max64(int64(keys), 1))
	if len(holds) == 0 {
		holds = []float64{0}
	}
	t.m["engine.sharded.release_hold_events_p50"] = median(holds)
	return nil
}

// handler is stage 6: the server's HTTP handler in process, on the
// open-loop schedule. bench.gen.late_p99_ms here is how late this
// in-process pacing ran, which validates the traced spans' schedule;
// the timed run prints its own open loop's lateness under the same
// name. Its self
// time is the handler's span minus the decode and Ingest spans of the
// same batches, which it calls internally. Two unpaced passes over the
// same batches, spans off and on, give the tracing overhead.
func (t *traced) handler() error {
	post := func(h http.Handler, bi int, b batch) error {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/events", bytes.NewReader(b.body))
		id := t.tr.begin("server.http", bi, 0)
		h.ServeHTTP(rec, req)
		t.tr.end(id)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST /events: %d %s", rec.Code, rec.Body.String())
		}
		return nil
	}
	var walls [2]time.Duration
	for i, spans := range []bool{false, true} {
		s, _, err := t.newServer()
		if err != nil {
			return err
		}
		h := s.Handler()
		t.tr.off = !spans
		t0 := time.Now()
		for bi, b := range t.paced {
			if err = post(h, bi, b); err != nil {
				break
			}
		}
		walls[i] = time.Since(t0)
		t.tr.off = false
		s.Close()
		if err != nil {
			return err
		}
	}
	// The overhead pass's spans are not the stage's measurement.
	n := len(t.tr.spans)
	for n > 0 && t.tr.spans[n-1].Name == "server.http" {
		n--
	}
	t.tr.spans = t.tr.spans[:n]
	t.m["bench.trace.overhead_frac"] = float64(walls[1])/float64(walls[0]) - 1

	s, _, err := t.newServer()
	if err != nil {
		return err
	}
	defer s.Close()
	h := s.Handler()
	lates, err := t.pace(t.paced, func(bi int, b batch) error { return post(h, bi, b) })
	if err != nil {
		return err
	}
	t.m["bench.gen.late_p99_ms"] = quantile(lates, tailRank(len(lates)))
	self := t.tr.total("server.http") - t.tr.totalBelow("engine.decode", len(t.paced)) - t.tr.total("server.ingest")
	t.m["server.http.self_ns_per_event"] = t.perPacedEvent(float64(self))
	if err := s.Drain(context.Background()); err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/queries/"+t.p.w.follow+"/matches", nil)
	id := t.tr.begin("server.matches", 0, 0)
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	t.tr.end(id)
	lines := bytes.Count(rec.Body.Bytes(), []byte{'\n'})
	if rec.Code != http.StatusOK || lines == 0 {
		return fmt.Errorf("GET matches: %d, %d lines", rec.Code, lines)
	}
	t.m["server.matches.ns_per_match"] = float64(d.Nanoseconds()) / float64(lines)
	return nil
}

// nodeRecorder is the benchmark's middleware around an in-process
// cluster node: it records a span for every POST /events, parented to
// the router ingest span in progress, and timestamps every match line
// the node writes on a match stream.
type nodeRecorder struct {
	next   http.Handler
	tr     *tracer
	batch  *atomic.Int64 // current trace id
	parent *atomic.Int64 // current router ingest span
	mu     *sync.Mutex
	wrote  map[string]time.Time
}

func (n *nodeRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/events" {
		id := n.tr.begin("cluster.node.events", int(n.batch.Load()), int(n.parent.Load()))
		n.next.ServeHTTP(w, r)
		n.tr.end(id)
		return
	}
	n.next.ServeHTTP(&lineStamper{ResponseWriter: w, n: n}, r)
}

// lineStamper timestamps the SSE data lines written through it.
type lineStamper struct {
	http.ResponseWriter
	n *nodeRecorder
}

func (l *lineStamper) Write(b []byte) (int, error) {
	now := time.Now()
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: ")); ok {
			l.n.mu.Lock()
			l.n.wrote[string(line)] = now
			l.n.mu.Unlock()
		}
	}
	return l.ResponseWriter.Write(b)
}

func (l *lineStamper) Flush() {
	if f, ok := l.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// cluster is stage 7: the router's split and merge over two in-process
// nodes. The followed query's merged stream is read live; each line's
// merge hold is its release time minus the time its node wrote it.
func (t *traced) cluster() error {
	// A workload that is not clustered routes its followed query alone.
	specs, follow := t.p.w.queries, t.p.w.follow
	if !t.p.w.cluster {
		for _, q := range t.p.w.queries {
			if q.ID == follow {
				specs = []querySpec{q}
			}
		}
	}
	rec := &nodeRecorder{tr: t.tr, batch: new(atomic.Int64), parent: new(atomic.Int64),
		mu: new(sync.Mutex), wrote: make(map[string]time.Time)}
	m := &cluster.Membership{Key: "ID", Slots: clusterSlots}
	var nodes []*server.Server
	var hs []*httptest.Server
	defer func() {
		for _, h := range hs {
			h.Close()
		}
		for _, s := range nodes {
			s.Close()
		}
	}()
	for i := 0; i < clusterParts; i++ {
		lo, hi := i*clusterSlots/clusterParts, (i+1)*clusterSlots/clusterParts
		s, err := server.New(server.Config{Schema: chemo.Schema(),
			Ownership: &cluster.Ownership{Key: "ID", Slots: clusterSlots, Lo: lo, Hi: hi}})
		if err != nil {
			return err
		}
		nodes = append(nodes, s)
		for _, q := range specs {
			if _, err := s.AddQuery(server.QuerySpec{ID: q.ID, Query: q.Query, Filter: q.Filter, Key: q.Key}); err != nil {
				return err
			}
		}
		nr := *rec
		nr.next = s.Handler()
		h := httptest.NewServer(&nr)
		hs = append(hs, h)
		m.Partitions = append(m.Partitions, cluster.Partition{ID: i, Lo: lo, Hi: hi, Leader: cluster.Node{URL: h.URL}})
	}
	r, err := cluster.NewRouter(cluster.RouterOptions{Membership: m, Schema: chemo.Schema()})
	if err != nil {
		return err
	}
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := r.Start(ctx); err != nil {
		return err
	}
	type mergedLine struct {
		at   time.Time
		line []byte
	}
	var merged []mergedLine
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- r.StreamMatches(ctx, follow, 0, true, func(_ int64, line []byte) error {
			merged = append(merged, mergedLine{time.Now(), append([]byte(nil), line...)})
			return nil
		})
	}()
	for bi, b := range t.batches {
		rec.batch.Store(int64(bi))
		id := t.tr.begin("cluster.ingest", bi, 0)
		rec.parent.Store(int64(id))
		_, err := r.IngestNDJSON(b.body)
		t.tr.end(id)
		rec.parent.Store(0)
		if err != nil {
			return err
		}
	}
	for _, s := range nodes {
		if err := s.Drain(ctx); err != nil {
			return err
		}
	}
	if err := <-streamDone; err != nil {
		return err
	}

	self := selfTimes(t.tr.spans)
	var ingestSelf int64
	for _, s := range t.tr.spans {
		if s.Name == "cluster.ingest" {
			ingestSelf += self[s.ID]
		}
	}
	t.m["cluster.ingest.self_ns_per_event"] = t.perEvent(float64(ingestSelf))
	perPart := make([]float64, clusterParts)
	for i := range t.events {
		perPart[partitionOfID(t.events[i].Attrs[0])]++
	}
	sort.Float64s(perPart)
	t.m["cluster.split.skew"] = perPart[len(perPart)-1] / (float64(len(t.events)) / clusterParts)

	var holds []float64
	var got [][]byte
	for _, rl := range merged {
		got = append(got, rl.line)
		if w, ok := rec.wrote[string(rl.line)]; ok {
			holds = append(holds, ms(rl.at.Sub(w)))
		}
	}
	if len(holds) == 0 {
		return fmt.Errorf("cluster: no merged match lines to time")
	}
	t.m["cluster.merge.hold_ms_p50"] = median(holds)
	t.m["cluster.merge.hold_ms_p99"] = quantile(holds, tailRank(len(holds)))

	// The merged stream against a standalone evaluation of each
	// partition's sub-stream: the split and merge must neither lose,
	// add nor alter a match.
	var fspec querySpec
	for _, q := range specs {
		if q.ID == follow {
			fspec = q
		}
	}
	q, err := canonical(fspec)
	if err != nil {
		return err
	}
	var want [][]byte
	for part := 0; part < clusterParts; part++ {
		sub := &stream{}
		for i := range t.events {
			if partitionOfID(t.events[i].Attrs[0]) == part {
				sub.events = append(sub.events, t.events[i])
			}
		}
		ref, err := standalone(q, sub, true)
		if err != nil {
			return err
		}
		want = append(want, ref.lines...)
	}
	missing, extra, err := diff(want, got)
	if err != nil {
		return err
	}
	for _, k := range missing {
		fmt.Fprintf(t.log, "cluster split: merged stream lacks %s\n", k)
	}
	for _, k := range extra {
		fmt.Fprintf(t.log, "cluster split: merged stream adds %.300s\n", k)
	}
	bad := len(missing)
	if len(extra) > bad {
		bad = len(extra)
	}
	t.ops.add(len(want), bad)
	t.m["cluster.split_divergence"] = float64(bad)
	return nil
}

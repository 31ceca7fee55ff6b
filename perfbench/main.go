// Command perfbench is the repository's end-to-end serving benchmark.
// It drives the sesd and sesrouter binaries over loopback HTTP on one
// named workload and prints the end-to-end metrics (-trace 0), or
// feeds the same inputs through each layer's public functions in
// process and prints the per-layer metrics (-trace 1). The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// See README.md for the workloads, the metric → layer map and how to
// run it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/chemo"
	"repro/internal/engine"
)

// runLimit bounds one invocation; past it every SUT process is killed
// and the run fails.
const runLimit = 170 * time.Second

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the tracing-off metrics BENCHMARK.json gates on, in
// print order; they go into the JSON result line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_event", "us"},
}

// printedOnly are tracing-off metrics that are measured and printed
// but not gated: in ten-seed sets on a 2-vCPU VM their spread exceeded
// the bound the gate allows. Wall-clock figures follow the CPU time
// the VM's neighbours steal (up to three quarters of it), the tails
// also disk-flush and GC stalls, and peak RSS follows GC timing.
// cpu_us_per_event_raw is the SUT's CPU time per event before the
// speed probe scales it (probe.go); bench.probe_ms is the probe's
// mean slice. bench.gen.late_p99_ms is the timed open loop's own
// generator lateness, printed so the open-loop figures can be judged.
var printedOnly = []metricDef{
	{"cpu_us_per_event_raw", "us"},
	{"bench.probe_ms", "ms"},
	{"ingest_eps", "events/s"},
	{"ack_p50_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"release_lag_p50_ms", "ms"},
	{"release_lag_p99_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"bench.gen.late_p99_ms", "ms"},
}

func main() {
	var (
		name    = flag.String("workload", "ingest", "workload name (ingest, engine, keys, cluster)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "measured seconds of one run")
		trace   = flag.Int("trace", 0, "1 runs the in-process traced run and prints the per-layer metrics")
		binDir  = flag.String("bin", ".bench_build/bin", "directory holding the sesd and sesrouter binaries")
		workDir = flag.String("work", ".bench_build/work", "directory for WAL, checkpoint and span files")
	)
	flag.Parse()
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	// A run must end within the harness's limit; a hung phase fails it.
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", runLimit)
		killAll()
		os.Exit(1)
	})
	err := run(*name, *seed, *seconds, *trace == 1, *binDir, *workDir)
	watchdog.Stop()
	if err != nil {
		killAll()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// prepared is a run's inputs, the SUT's per-phase targets and the
// standalone references, built before any timing.
type prepared struct {
	w    *workload
	s    *stream
	qs   []*compiledQuery
	tgt  *targets
	refs map[string]*reference // per query id
	want [][]byte              // reference lines of the followed query
	ops  tally                 // the replay checked against the references
}

// prepare generates the stream, replays it through in-process servers
// for the per-phase targets, evaluates every query standalone over the
// whole stream, and checks the replay's drained counts and folds
// against those references.
func prepare(w *workload, seed int64, seconds int) (*prepared, error) {
	qs, err := compileQueries(w.queries, chemo.Schema())
	if err != nil {
		return nil, err
	}
	s, err := buildStream(w, autosOf(qs), seed, seconds)
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w, s: s, qs: qs, refs: make(map[string]*reference)}
	// The replay and the references are independent: run them two at
	// a time.
	present := distinctValues(s.events, autosOf(qs))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	sem := make(chan struct{}, 2)
	do := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := f(); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}()
	}
	do(func() (err error) {
		p.tgt, err = replay(w, s)
		return err
	})
	for _, q := range qs {
		q := q
		// A query no event of the stream routes to has no match and
		// no fold: no runner needs to step the stream to show it.
		if !present.reachable(q.auto.RouteKeys()) {
			p.refs[q.spec.ID] = &reference{}
			continue
		}
		do(func() error {
			ref, err := standalone(q, s, q.spec.ID == w.follow)
			if err != nil {
				return fmt.Errorf("reference %s: %w", q.spec.ID, err)
			}
			mu.Lock()
			p.refs[q.spec.ID] = ref
			mu.Unlock()
			return nil
		})
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errs[0]
	}
	p.want = p.refs[w.follow].lines
	p.checkReplay(os.Stderr)
	return p, nil
}

// checkReplay compares the replay's drained counts and folds with the
// standalone references. The timed run checks the SUT against the
// replay and counts the attempted ops there; a difference here fails
// them too.
func (p *prepared) checkReplay(log io.Writer) {
	for _, q := range p.qs {
		id := q.spec.ID
		ref, got := p.refs[id], p.tgt.drained[id]
		if q.plan == nil {
			p.ops.add(0, int(abs64(got-ref.count)))
			if got != ref.count {
				fmt.Fprintf(log, "query %s: replay drained %d matches, standalone reference %d\n", id, got, ref.count)
			}
			continue
		}
		if ref.stats == nil {
			ref.stats, _, _ = engine.NewAggregator(q.plan).Stats(0)
		}
		if doc := p.tgt.drainedStats[id]; got != ref.count || !bytes.Equal(doc, ref.stats) {
			p.ops.add(0, 1)
			fmt.Fprintf(log, "stats %s: replay drained %d folds, standalone %d; documents:\n got  %.300s\n want %.300s\n",
				id, got, ref.count, doc, ref.stats)
		}
	}
}

// abs64 is |v|.
func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func run(name string, seed int64, seconds int, traced bool, binDir, workDir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be positive")
	}
	t0 := time.Now()
	p, err := prepare(w, seed, seconds)
	if err != nil {
		return err
	}
	log := os.Stderr
	fmt.Fprintf(log, "workload %s seed %d: %s, %d reference lines (prepared in %.1fs)\n",
		name, seed, p.s.describe(), len(p.want), time.Since(t0).Seconds())
	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	metrics := make(map[string]float64)
	var ops tally
	defs, extra := endToEnd, printedOnly
	if traced {
		defs, extra = perLayer, nil
		if ops, err = tracedRun(p, workDir, metrics, log); err != nil {
			return err
		}
	} else {
		r := &timedRun{w: w, s: p.s, qs: p.qs, tgt: p.tgt, want: p.want, binDir: binDir,
			dir: dir, metrics: metrics, log: log}
		if err := r.run(); err != nil {
			return err
		}
		ops = r.ops
	}
	ops.add(p.ops.attempted, p.ops.failed)
	return report(os.Stdout, defs, extra, metrics, ops)
}

// report prints every metric by name with its unit, the correctness
// verdict, and the JSON result line, holding the defs metrics, last.
func report(out io.Writer, defs, extra []metricDef, metrics map[string]float64, ops tally) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: ops.failed == 0, Attempted: ops.attempted, Failed: ops.failed, Metrics: make(map[string]value)}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(out, "%-40s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, d := range extra {
		fmt.Fprintf(out, "%-40s %14.6g %s (not gated)\n", d.name, metrics[d.name], d.unit)
	}
	frac := 0.0
	if ops.attempted > 0 {
		frac = float64(ops.failed) / float64(ops.attempted)
	}
	fmt.Fprintf(out, "%-40s %14.6g (%d of %d ops)\n", "failed_ops_frac", frac, ops.failed, ops.attempted)
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(out, "verdict: %s\n", verdict)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

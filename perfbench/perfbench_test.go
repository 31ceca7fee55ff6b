package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/server"
)

func TestTriggerIndex(t *testing.T) {
	evs := []event.Event{{Time: 10}, {Time: 20}, {Time: 20}, {Time: 35}}
	for _, c := range []struct {
		horizon event.Time
		want    int
	}{
		{5, 0},   // every event is past the horizon
		{10, 1},  // an event at the horizon does not close the window
		{19, 1},  // the first later event
		{20, 3},  // ties at the horizon are skipped together
		{35, 4},  // nothing exceeds it: released only by drain
		{100, 4}, // likewise
	} {
		if got := triggerIndex(evs, c.horizon); got != c.want {
			t.Errorf("triggerIndex(%d) = %d, want %d", c.horizon, got, c.want)
		}
	}
	batches := []batch{{lo: 0, hi: 2}, {lo: 2, hi: 4}}
	for i, want := range []int{0, 0, 1, 1, 2} {
		if got := batchOf(batches, i); got != want {
			t.Errorf("batchOf(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 0.99}, // p99 with 50 samples beyond it
		{1000, 0.99}, // exactly ten beyond p99
		{500, 0.98},  // p99 would leave five: fall back to p98
		{40, 0.75},
		{20, 0.5},
		{10, 0.5}, // too small for any tail: the median
		{0, 0.5},
	} {
		if got := tailRank(c.n); got != c.want {
			t.Errorf("tailRank(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The reported rank always leaves at least ten samples above it.
	for _, n := range []int{20, 37, 500, 999, 1000, 1001, 4321} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i)
		}
		q := quantile(vals, tailRank(n))
		if beyond := n - 1 - int(q); beyond < 10 {
			t.Errorf("n=%d: quantile %g leaves %d samples beyond it", n, q, beyond)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},              // root
		{ID: 2, Parent: 1, Start: 10, End: 30},   // child
		{ID: 3, Parent: 1, Start: 20, End: 50},   // overlaps child 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120},  // runs past the parent: clipped
		{ID: 5, Parent: 3, Start: 25, End: 35},   // grandchild: only its parent's
		{ID: 6, Start: 200, End: 260},            // unrelated root
		{ID: 7, Parent: 6, Start: 200, End: 260}, // covers all of its parent
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 0, 7: 60}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestDiffMultiset(t *testing.T) {
	a := []byte(`{"first":1,"last":3,"bindings":[{"var":"c","events":[{"seq":0,"time":1,"attrs":{}}]},` +
		`{"var":"p","group":true,"events":[{"seq":2,"time":2,"attrs":{}},{"seq":1,"time":2,"attrs":{}}]}]}`)
	// The same match with bindings and group events listed in another
	// order: equal as sets.
	aPerm := []byte(`{"first":1,"last":3,"bindings":[{"var":"p","group":true,"events":[{"seq":1,"time":2,"attrs":{}},` +
		`{"seq":2,"time":2,"attrs":{}}]},{"var":"c","events":[{"seq":0,"time":1,"attrs":{}}]}]}`)
	// A match that lost its earliest group binding.
	b := []byte(`{"first":1,"last":3,"bindings":[{"var":"c","events":[{"seq":0,"time":1,"attrs":{}}]},` +
		`{"var":"p","group":true,"events":[{"seq":2,"time":2,"attrs":{}}]}]}`)

	if missing, extra, err := diff([][]byte{a, b}, [][]byte{b, aPerm}); err != nil || len(missing)+len(extra) != 0 {
		t.Errorf("permuted multiset: missing %v extra %v err %v", missing, extra, err)
	}
	// Multiplicity counts: a duplicate is an extra line.
	missing, extra, err := diff([][]byte{a}, [][]byte{a, aPerm})
	if err != nil || len(missing) != 0 || len(extra) != 1 {
		t.Errorf("duplicate: missing %v extra %v err %v", missing, extra, err)
	}
	// A differing line shows as one missing and one extra.
	missing, extra, err = diff([][]byte{a}, [][]byte{b})
	if err != nil || len(missing) != 1 || len(extra) != 1 {
		t.Errorf("differing: missing %v extra %v err %v", missing, extra, err)
	}
	// An unparseable line from the server is extra, not an error.
	missing, extra, err = diff([][]byte{a}, [][]byte{a, []byte("garbage")})
	if err != nil || len(missing) != 0 || len(extra) != 1 {
		t.Errorf("garbage: missing %v extra %v err %v", missing, extra, err)
	}
}

func TestFirstOf(t *testing.T) {
	if f, ok := firstOf([]byte(`{"first":1274952660,"last":1275041880,"bindings":[]}`)); !ok || f != 1274952660 {
		t.Errorf("firstOf = %d, %v", f, ok)
	}
	if _, ok := firstOf([]byte(`{"last":1}`)); ok {
		t.Error("firstOf accepted a line without first")
	}
}

// TestBenchmarkJSON pins the metrics the benchmark prints to the ones
// BENCHMARK.json declares, and the workloads to ones that exist.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		declared []metric
		defs     []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		var got []metric
		for _, d := range c.defs {
			got = append(got, metric{d.name, d.unit})
		}
		if !reflect.DeepEqual(got, c.declared) {
			t.Errorf("metrics %v, BENCHMARK.json declares %v", got, c.declared)
		}
	}
}

func TestQuiet(t *testing.T) {
	at := func(v int64) *int64 { return &v }
	a := []server.QueryInfo{{ID: "q", Events: 5, Matches: 2, Emitted: 2, ProcessedThrough: at(10), Mode: "supervised"}}
	same := []server.QueryInfo{{ID: "q", Events: 5, Matches: 2, Emitted: 2, ProcessedThrough: at(10), Mode: "supervised"}}
	if !idle(a) || !sameProgress(a, same) {
		t.Error("an unchanged idle server reads as busy")
	}
	for _, moved := range []server.QueryInfo{
		{ID: "q", Events: 6, Matches: 2, Emitted: 2, ProcessedThrough: at(10)},
		{ID: "q", Events: 5, Matches: 2, Emitted: 2, ProcessedThrough: at(11)},
		{ID: "q", Events: 5, Matches: 2, Emitted: 2},
		{ID: "q", Events: 5, Matches: 2, Emitted: 2, ProcessedThrough: at(10), AggVersion: 1},
	} {
		if sameProgress(a, []server.QueryInfo{moved}) {
			t.Errorf("progress %+v not seen", moved)
		}
	}
	if sameProgress(nil, a) {
		t.Error("a first read counts as quiet")
	}
	if idle([]server.QueryInfo{{ID: "q", QueueDepth: 1}}) {
		t.Error("a queued block reads as idle")
	}
	if idle([]server.QueryInfo{{ID: "q", Matches: 1, Emitted: 2, Mode: "supervised"}}) {
		t.Error("a match handed off but not logged reads as idle")
	}
}

func TestProber(t *testing.T) {
	// The probe task is fixed: two slices leave the same result.
	probeSink = 0
	probeSlice()
	first := probeSink
	probeSlice()
	if probeSink != 2*first {
		t.Errorf("probe slices differ: %d then %d", first, probeSink-first)
	}
	var calls []bool
	p := startProber(time.Millisecond, func(stopped bool) { calls = append(calls, stopped) })
	time.Sleep(20 * time.Millisecond)
	mean, n := p.end()
	if n < 2 || mean <= 0 {
		t.Errorf("prober: %d slices, mean %s", n, mean)
	}
	if len(calls) != 2*n {
		t.Fatalf("%d pause calls for %d slices", len(calls), n)
	}
	for i, stopped := range calls {
		if stopped != (i%2 == 0) {
			t.Fatalf("pause calls %v do not alternate stop, continue", calls)
		}
	}
}

func TestPausedWithin(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	p := &prober{paused: [][2]time.Time{{at(0), at(10)}, {at(50), at(60)}, {at(100), at(110)}}}
	for _, c := range []struct {
		a, b int
		want time.Duration
	}{
		{0, 200, 30 * time.Millisecond},
		{5, 55, 10 * time.Millisecond}, // the ends of two pauses
		{20, 40, 0},
		{52, 58, 6 * time.Millisecond}, // inside one pause
	} {
		if got := p.pausedWithin(at(c.a), at(c.b)); got != c.want {
			t.Errorf("pausedWithin(%d, %d) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

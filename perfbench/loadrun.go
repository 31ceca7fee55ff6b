package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/event"
)

const (
	// setups is how many times a run stands the SUT up; setup_s is the
	// median, and the last set-up serves the measured phases.
	setups = 11
	// requestTimeout fails an ingest or control request.
	requestTimeout = 10 * time.Second
	// settleTimeout bounds the wait for a phase's matches and folds.
	settleTimeout = 30 * time.Second
	// pollEvery is the count-polling period while waiting for a phase
	// to settle; it bounds the ingest_eps clock's resolution.
	pollEvery = 5 * time.Millisecond
	// clkTck is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
	// times on Linux.
	clkTck = 100
)

// newClient returns an HTTP client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// tally counts attempted and failed operations.
type tally struct{ attempted, failed int }

func (t *tally) add(attempted, failed int) {
	t.attempted += attempted
	t.failed += failed
}

// matchRecord is one line read from the followed match stream.
type matchRecord struct {
	off  int64
	at   time.Time
	line []byte
}

// follower reads a match stream as SSE, so every line carries its
// match-log offset and eviction gaps show as offset jumps.
type follower struct {
	recs  []matchRecord
	ended bool
	err   error
	done  chan struct{}
}

func startFollower(c *http.Client, url string) (*follower, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	f := &follower{done: make(chan struct{})}
	// The router sends its response header only with the first merged
	// match, so the request completes in the reader goroutine.
	go func() {
		defer close(f.done)
		resp, err := c.Do(req)
		if err != nil {
			f.err = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			f.err = fmt.Errorf("follow %s: %s: %s", url, resp.Status, raw)
			return
		}
		br := bufio.NewReaderSize(resp.Body, 1<<16)
		off := int64(-1)
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				if err != io.EOF {
					f.err = err
				}
				return
			}
			line = bytes.TrimRight(line, "\r\n")
			switch {
			case bytes.HasPrefix(line, []byte("id: ")):
				off, _ = strconv.ParseInt(string(line[4:]), 10, 64)
			case bytes.HasPrefix(line, []byte("data: ")):
				if off >= 0 {
					f.recs = append(f.recs, matchRecord{off: off, at: time.Now(), line: append([]byte(nil), line[6:]...)})
					off = -1
				}
			case bytes.Equal(line, []byte("event: end")):
				f.ended = true
			}
		}
	}()
	return f, nil
}

// timedRun is one tracing-off run against the real binaries.
type timedRun struct {
	w       *workload
	s       *stream
	qs      []*compiledQuery
	tgt     *targets // per-phase counts and folds the SUT must reach
	want    [][]byte // reference lines of the followed query
	binDir  string
	dir     string
	ctl     *http.Client
	sut     *sut
	ops     tally
	metrics map[string]float64
	log     io.Writer
}

// postBatch sends one ingest request and reports whether it was
// acknowledged with 2xx.
func (r *timedRun) postBatch(body []byte) bool {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.sut.base+"/events", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := r.ctl.Do(req)
	if err != nil {
		fmt.Fprintf(r.log, "ingest failed: %v\n", err)
		return false
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		fmt.Fprintf(r.log, "ingest failed: %s: %s\n", resp.Status, bytes.TrimSpace(raw))
		return false
	}
	return true
}

// counts reads every query's match count (fold count for aggregate
// queries) from the SUT.
func (r *timedRun) counts() (map[string]int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	type info struct {
		ID         string `json:"id"`
		Matches    int64  `json:"matches"`
		Aggregate  bool   `json:"aggregate"`
		AggVersion int64  `json:"agg_version"`
	}
	out := make(map[string]int64, len(r.qs))
	put := func(in info) {
		if in.Aggregate {
			out[in.ID] = in.AggVersion
		} else {
			out[in.ID] = in.Matches
		}
	}
	if r.w.cluster {
		for _, q := range r.qs {
			var in info
			if err := getJSON(ctx, r.ctl, r.sut.base+"/queries/"+q.spec.ID, &in); err != nil {
				return nil, err
			}
			put(in)
		}
		return out, nil
	}
	var list struct {
		Queries []info `json:"queries"`
	}
	if err := getJSON(ctx, r.ctl, r.sut.base+"/queries", &list); err != nil {
		return nil, err
	}
	for _, in := range list.Queries {
		put(in)
	}
	return out, nil
}

// settle polls the counts until every query reached want, returning
// the time of the satisfying answer and the last counts read. Counts
// still short at the deadline are failed operations.
func (r *timedRun) settle(want map[string]int64) (time.Time, map[string]int64) {
	deadline := time.Now().Add(settleTimeout)
	var got map[string]int64
	for {
		c, err := r.counts()
		at := time.Now()
		if err == nil {
			got = c
			short := false
			for id, n := range want {
				if got[id] < n {
					short = true
					break
				}
			}
			if !short {
				return at, got
			}
		}
		if at.After(deadline) {
			for id, n := range want {
				if got[id] < n {
					fmt.Fprintf(r.log, "query %s: %d of %d matches/folds after %s\n", id, got[id], n, settleTimeout)
					r.ops.failed += int(n - got[id])
				}
			}
			return at, got
		}
		time.Sleep(pollEvery)
	}
}

// checkStats compares every aggregate query's /stats document with the
// reference fold at the phase end.
func (r *timedRun) checkStats(phase int) {
	for _, q := range r.qs {
		if q.plan == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		doc, err := get(ctx, r.ctl, r.sut.base+"/queries/"+q.spec.ID+"/stats")
		cancel()
		want := r.tgt.stats[phase][q.spec.ID]
		if err == nil && bytes.Equal(bytes.TrimSpace(doc), want) {
			r.ops.add(1, 0)
			continue
		}
		r.ops.add(1, 1)
		if err != nil {
			fmt.Fprintf(r.log, "stats %s (phase %d): %v\n", q.spec.ID, phase, err)
		} else {
			fmt.Fprintf(r.log, "stats %s (phase %d) differs from the replay's fold:\n got  %.300s\n want %.300s\n",
				q.spec.ID, phase, bytes.TrimSpace(doc), want)
		}
	}
}

// checkCounts charges every non-followed match query's count at the
// last phase end against the replay's: the SUT runs the same server
// code, so the counts must be equal. (The replay's drained counts were
// checked against the standalone references in prepare.)
func (r *timedRun) checkCounts(got map[string]int64) {
	want := r.tgt.counts[len(r.tgt.counts)-1]
	for _, q := range r.qs {
		if q.spec.ID == r.w.follow || q.plan != nil {
			continue
		}
		id := q.spec.ID
		r.ops.add(int(want[id]), int(abs64(got[id]-want[id])))
		if got[id] != want[id] {
			fmt.Fprintf(r.log, "query %s: %d matches before drain, replay %d\n", id, got[id], want[id])
		}
	}
}

// run executes the measured phases and fills r.metrics.
func (r *timedRun) run() error {
	r.ctl = newClient()
	defer r.ctl.CloseIdleConnections()

	// The generator shares the SUT's CPUs: keep its own garbage
	// collector, and the collection of what preparing left behind, out
	// of the set-ups and the measured phases. What they allocate
	// (requests and match lines) is small next to the prepared input.
	runtime.GC()
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gcPercent := debug.SetGCPercent(-1)

	var setupTimes []float64
	for k := 0; k < setups; k++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("setup%d", k))
		t0 := time.Now()
		s, err := startSUT(r.w, r.binDir, dir)
		if err != nil {
			return err
		}
		if err := s.waitHealthy(r.ctl, 60*time.Second); err != nil {
			s.stop(nil)
			return err
		}
		tH := time.Now()
		if err := s.register(r.ctl, r.w.queries); err != nil {
			s.stop(nil)
			return err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		fmt.Fprintf(r.log, "set-up %d: healthy after %.1f ms, registered after %.1f ms\n", k, ms(tH.Sub(t0)), ms(time.Since(t0)))
		if k == setups-1 {
			r.sut = s
			break
		}
		// A set-up that only timed start-up is killed, not drained:
		// sesd installs its SIGTERM handler only after it starts
		// serving, so a SIGTERM this soon after readiness can end it
		// before any drain.
		r.ctl.CloseIdleConnections()
		s.kill()
		os.RemoveAll(dir)
	}
	r.metrics["setup_s"] = median(setupTimes)

	fc := newClient()
	defer fc.CloseIdleConnections()
	fol, err := startFollower(fc, r.sut.base+"/queries/"+r.w.follow+"/matches?follow=1")
	if err != nil {
		r.sut.stop(nil)
		return err
	}

	// Open loop: a stall is charged to every batch queued behind it.
	s := r.s
	start := time.Now().Add(20 * time.Millisecond)
	var acks []float64
	lates, _ := openLoop(start, s.openEnd(), r.w.openRate, func(i int, due time.Time) error { // never fails
		ok := r.postBatch(s.batches[i].body)
		if ok {
			acks = append(acks, ms(time.Since(due)))
			r.ops.add(1, 0)
		} else {
			acks = append(acks, ms(requestTimeout))
			r.ops.add(1, 1)
		}
		return nil
	})
	r.settle(r.tgt.counts[0])
	r.checkStats(0)

	// Closed loop: one sender, the next batch only after the previous
	// acknowledgement; a segment's clock stops once every query has
	// released the segment's matches and folds, since ingest only
	// enqueues. The speed probe pauses the SUT for one slice every
	// probePeriod (probe.go); the pauses are taken off the clock.
	var (
		events, ticks int64
		got           map[string]int64
		windows       [][2]time.Time
	)
	pr := startProber(probePeriod, r.sut.pause)
	for seg := 1; seg < len(s.phaseEnd); seg++ {
		user0, sys0, err := r.sut.cpuTicks()
		if err != nil {
			pr.end()
			r.sut.stop(nil)
			return err
		}
		t0 := time.Now()
		for i := s.batchEnd[seg-1]; i < s.batchEnd[seg]; i++ {
			if r.postBatch(s.batches[i].body) {
				r.ops.add(1, 0)
			} else {
				r.ops.add(1, 1)
			}
		}
		var tDone time.Time
		tDone, got = r.settle(r.tgt.counts[seg])
		user1, sys1, err := r.sut.cpuTicks()
		if err != nil {
			pr.end()
			r.sut.stop(nil)
			return err
		}
		n := int64(s.phaseEnd[seg] - s.phaseEnd[seg-1])
		perEvent := func(ticks int64) float64 { return float64(ticks) * 1e6 / clkTck / float64(n) }
		fmt.Fprintf(r.log, "closed-loop segment %d: %d events, CPU %.2f us/event user + %.2f sys\n",
			seg, n, perEvent(user1-user0), perEvent(sys1-sys0))
		events += n
		windows = append(windows, [2]time.Time{t0, tDone})
		ticks += user1 - user0 + sys1 - sys0
		r.checkStats(seg)
	}
	pMean, pN := pr.end()
	var busy time.Duration
	for _, w := range windows {
		busy += w[1].Sub(w[0]) - pr.pausedWithin(w[0], w[1])
	}
	// Whole-phase ratios: a garbage collection of a large heap lands in
	// one segment, so per-segment figures scatter more than their sum.
	raw := float64(ticks) * 1e6 / clkTck / float64(events)
	r.metrics["ingest_eps"] = float64(events) / busy.Seconds()
	r.metrics["cpu_us_per_event_raw"] = raw
	r.metrics["cpu_us_per_event"] = raw * float64(probeRef) / float64(pMean)
	r.metrics["bench.probe_ms"] = ms(pMean)
	fmt.Fprintf(r.log, "speed probe: %d slices, trimmed mean %.3f ms\n", pN, ms(pMean))
	runtime.ReadMemStats(&m1)
	debug.SetGCPercent(gcPercent)
	fmt.Fprintf(r.log, "generator allocated %.1f MiB during the set-ups and measured phases\n", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	r.checkCounts(got)
	rss, err := r.sut.peakRSS()
	if err != nil {
		r.sut.stop(nil)
		return err
	}
	r.metrics["peak_rss_mb"] = float64(rss) / (1 << 20)

	// Shutdown drains: the followed stream ends once the drained
	// pipelines have flushed their last matches.
	stopErr := r.sut.stop(func() {
		select {
		case <-fol.done:
		case <-time.After(settleTimeout):
		}
	})
	<-fol.done
	if stopErr != nil {
		fmt.Fprintf(r.log, "shutdown: %v\n", stopErr)
	}

	r.checkFollowed(fol, start)
	p := tailRank(len(acks))
	r.metrics["ack_p50_ms"] = median(acks)
	r.metrics["ack_p99_ms"] = quantile(acks, p)
	fmt.Fprintf(r.log, "ack latency: %d samples, tail reported at p%.4g\n", len(acks), 100*p)
	r.metrics["bench.gen.late_p99_ms"] = quantile(lates, tailRank(len(lates)))
	return nil
}

// checkFollowed checks the followed stream: offsets must be dense (a
// jump is a match-log eviction gap), the lines must equal the
// reference as a multiset, and every line whose release trigger lies
// in the open loop yields a release-lag sample.
func (r *timedRun) checkFollowed(f *follower, start time.Time) {
	if f.err != nil {
		fmt.Fprintf(r.log, "follow stream: %v\n", f.err)
	}
	if !f.ended {
		fmt.Fprintf(r.log, "follow stream ended without its end event\n")
		r.ops.add(1, 1)
	}
	var next int64
	var lines [][]byte
	for _, rec := range f.recs {
		if rec.off != next {
			fmt.Fprintf(r.log, "follow stream: eviction gap, offsets %d..%d skipped\n", next, rec.off-1)
		}
		next = rec.off + 1
		lines = append(lines, rec.line)
	}
	missing, extra, err := diff(r.want, lines)
	if err != nil {
		fmt.Fprintf(r.log, "reference: %v\n", err)
	}
	bad := len(missing)
	if len(extra) > bad {
		bad = len(extra)
	}
	r.ops.add(len(r.want), bad)
	for i, k := range missing {
		if i == 20 {
			fmt.Fprintf(r.log, "... %d more missing\n", len(missing)-i)
			break
		}
		fmt.Fprintf(r.log, "missing match: %s\n", k)
	}
	for i, k := range extra {
		if i == 20 {
			fmt.Fprintf(r.log, "... %d more extra\n", len(extra)-i)
			break
		}
		fmt.Fprintf(r.log, "extra match: %.300s\n", k)
	}

	var within event.Duration
	for _, q := range r.qs {
		if q.spec.ID == r.w.follow {
			within = q.auto.Within
		}
	}
	var lags []float64
	for _, rec := range f.recs {
		first, ok := firstOf(rec.line)
		if !ok {
			continue
		}
		b := batchOf(r.s.batches, triggerIndex(r.s.events, first+event.Time(within)))
		if b < r.s.openEnd() {
			lags = append(lags, ms(rec.at.Sub(dueAt(start, b, r.w.openRate))))
		}
	}
	p := tailRank(len(lags))
	r.metrics["release_lag_p50_ms"] = median(lags)
	r.metrics["release_lag_p99_ms"] = quantile(lags, p)
	fmt.Fprintf(r.log, "release lag: %d samples, tail reported at p%.4g\n", len(lags), 100*p)
}

// firstOf extracts a match line's window start ("first").
func firstOf(line []byte) (event.Time, bool) {
	const key = `{"first":`
	if !bytes.HasPrefix(line, []byte(key)) {
		return 0, false
	}
	rest := line[len(key):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimSpace(string(rest[:end])), 10, 64)
	return event.Time(n), err == nil
}

// dueAt is when batch i of an open loop started at start is due.
func dueAt(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// openLoop calls send for batches 0..n-1, each at its due time
// whether or not earlier calls were slow, and returns how late the
// generator ran: per batch, its send time minus the later of its due
// time and the previous call's return. It stops at send's first error.
func openLoop(start time.Time, n int, rate float64, send func(i int, due time.Time) error) ([]float64, error) {
	prev := start
	var lates []float64
	for i := 0; i < n; i++ {
		due := dueAt(start, i, rate)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ready := due
		if prev.After(ready) {
			ready = prev
		}
		lates = append(lates, ms(time.Since(ready)))
		if err := send(i, due); err != nil {
			return nil, err
		}
		prev = time.Now()
	}
	return lates, nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

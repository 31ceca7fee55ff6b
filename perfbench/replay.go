package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chemo"
	"repro/internal/event"
	"repro/internal/server"
)

const (
	// quietFor is how long an in-process replay server must show no
	// progress, with empty mailboxes, before its counts are read.
	quietFor = 100 * time.Millisecond
	// quiesceTimeout bounds the wait for a replay server to go quiet.
	quiesceTimeout = 60 * time.Second
)

// targets are what the SUT must show at each phase end. They are read
// from in-process, WAL-less server.Server instances fed the same
// batches, so the server's own routing, reordering and release policy
// decide them and the benchmark keeps no model of those policies. In
// the cluster workload each partition's sub-stream feeds a server of
// its own and the counts are summed, as the router sums them.
type targets struct {
	counts       []map[string]int64  // per phase: matches, or folds of aggregate queries
	stats        []map[string][]byte // per phase: stats documents of aggregate queries
	drained      map[string]int64    // the same counts after a drain
	drainedStats map[string][]byte
}

// replay computes the targets of the workload's stream.
func replay(w *workload, s *stream) (*targets, error) {
	t := &targets{drained: make(map[string]int64), drainedStats: make(map[string][]byte)}
	for range s.phaseEnd {
		t.counts = append(t.counts, make(map[string]int64))
		t.stats = append(t.stats, make(map[string][]byte))
	}
	parts := 1
	if w.cluster {
		parts = clusterParts
	}
	for part := 0; part < parts; part++ {
		if err := t.replayPart(w, s, part, parts > 1); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// replayPart feeds partition part's events, batch by batch, to a
// fresh server with the workload's registrations and adds the server's
// counts at every phase end and after a drain to t.
func (t *targets) replayPart(w *workload, s *stream, part int, summed bool) error {
	srv, err := server.New(server.Config{Schema: chemo.Schema()})
	if err != nil {
		return err
	}
	defer srv.Close()
	for _, q := range w.queries {
		if _, err := srv.AddQuery(server.QuerySpec{ID: q.ID, Query: q.Query, Filter: q.Filter, Key: q.Key}); err != nil {
			return err
		}
	}
	read := func(infos []server.QueryInfo, counts map[string]int64, stats map[string][]byte) error {
		for _, qi := range infos {
			if !qi.Aggregate {
				counts[qi.ID] += qi.Matches
				continue
			}
			if summed {
				return fmt.Errorf("query %s: aggregate queries are not replayed per partition", qi.ID)
			}
			counts[qi.ID] += int64(qi.AggVersion)
			doc, _, _, err := srv.Stats(qi.ID, 0)
			if err != nil {
				return err
			}
			stats[qi.ID] = doc
		}
		return nil
	}
	lo := 0
	for phase, hi := range s.batchEnd {
		for _, b := range s.batches[lo:hi] {
			var evs []event.Event
			for i := b.lo; i < b.hi; i++ {
				if partitionOf(w, &s.events[i]) == part {
					evs = append(evs, s.events[i])
				}
			}
			if len(evs) == 0 {
				continue
			}
			if _, err := srv.Ingest(evs); err != nil {
				return err
			}
		}
		lo = hi
		infos, err := quiesce(srv)
		if err != nil {
			return err
		}
		if err := read(infos, t.counts[phase], t.stats[phase]); err != nil {
			return err
		}
	}
	if err := srv.Drain(context.Background()); err != nil {
		return err
	}
	return read(srv.Queries(), t.drained, t.drainedStats)
}

// quiesce waits until every mailbox of srv is empty, every handed-off
// match is in its log, and no query's progress counters have moved for
// quietFor, and returns the query infos read then.
func quiesce(srv *server.Server) ([]server.QueryInfo, error) {
	deadline := time.Now().Add(quiesceTimeout)
	var (
		last  []server.QueryInfo
		since time.Time
	)
	for {
		infos := srv.Queries()
		now := time.Now()
		if idle(infos) && sameProgress(last, infos) {
			if now.Sub(since) >= quietFor {
				return infos, nil
			}
		} else {
			since = now
		}
		if now.After(deadline) {
			return nil, fmt.Errorf("replay server still busy after %s", quiesceTimeout)
		}
		last = infos
		time.Sleep(time.Millisecond)
	}
}

// idle reports whether no query has a queued block or a match handed
// to its collector but not yet logged.
func idle(infos []server.QueryInfo) bool {
	for _, qi := range infos {
		if qi.QueueDepth > 0 || qi.Emitted > qi.Matches && qi.Mode == "supervised" && !qi.Aggregate {
			return false
		}
	}
	return true
}

// sameProgress reports whether two reads show the same progress.
func sameProgress(a, b []server.QueryInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Events != y.Events || x.Matches != y.Matches || x.Emitted != y.Emitted ||
			x.AggVersion != y.AggVersion || (x.ProcessedThrough == nil) != (y.ProcessedThrough == nil) ||
			x.ProcessedThrough != nil && *x.ProcessedThrough != *y.ProcessedThrough {
			return false
		}
	}
	return true
}

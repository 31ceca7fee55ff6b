package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/automaton"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/pattern"
	"repro/internal/query"
)

// compiledQuery is a registration compiled the way the server
// compiles it.
type compiledQuery struct {
	spec querySpec
	auto *automaton.Automaton
	plan *engine.AggPlan // nil without an AGGREGATE clause
}

// compileQueries compiles every registration against the schema.
func compileQueries(specs []querySpec, schema *event.Schema) ([]*compiledQuery, error) {
	var out []*compiledQuery
	for _, spec := range specs {
		p, err := query.Parse(spec.Query)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", spec.ID, err)
		}
		variants, err := pattern.ExpandOptionals(p)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", spec.ID, err)
		}
		a, err := automaton.Compile(variants[0], schema)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", spec.ID, err)
		}
		cq := &compiledQuery{spec: spec, auto: a}
		if a.Pattern.Agg != nil {
			if cq.plan, err = engine.CompileAggregate(a, a.Pattern.Agg); err != nil {
				return nil, fmt.Errorf("query %s: %w", spec.ID, err)
			}
		}
		out = append(out, cq)
	}
	return out, nil
}

// autosOf lists the compiled automata.
func autosOf(qs []*compiledQuery) []*automaton.Automaton {
	out := make([]*automaton.Automaton, len(qs))
	for i, q := range qs {
		out[i] = q.auto
	}
	return out
}

// runnerOptions are the engine options the server gives a query's
// runners.
func (q *compiledQuery) runnerOptions(ag *engine.Aggregator) []engine.Option {
	opts := []engine.Option{engine.WithFilter(q.spec.Filter)}
	if ag != nil {
		opts = append(opts, engine.WithAggregation(ag), engine.WithAggregateOnly(true))
	}
	return opts
}

// router mirrors the server's routing decision for one query: an event
// is delivered when it matches one of the automaton's route keys, and
// an event matching only non-start keys is pruned once it lies more
// than WITHIN past the newest start event (the WITHIN prune of an
// ordered stream). It places the closing events and feeds the traced
// run's step stage; no target or correctness check depends on it.
type router struct {
	rs        automaton.RouteSet
	within    event.Duration
	lastStart event.Time
}

func newRouter(a *automaton.Automaton) *router {
	return &router{rs: a.RouteKeys(), within: a.Within, lastStart: event.Time(math.MinInt64)}
}

// deliver reports whether the server hands e to the query.
func (r *router) deliver(e *event.Event) bool {
	if r.rs.All {
		return true
	}
	hit, start := false, false
	for _, k := range r.rs.Keys {
		if e.Attrs[k.Attr] == k.Val {
			hit = true
			start = start || k.Start
		}
	}
	switch {
	case !hit:
		return false
	case start:
		if e.Time > r.lastStart {
			r.lastStart = e.Time
		}
		return true
	}
	return r.within <= 0 || r.lastStart == event.Time(math.MinInt64) ||
		event.Duration(e.Time-r.lastStart) <= r.within
}

// reference is one query's standalone evaluation over the whole
// stream: what sesmatch prints for it.
type reference struct {
	count int64    // matches, or folds of an aggregate query
	stats []byte   // the final stats document of an aggregate query
	lines [][]byte // every match encoded, for the followed query only
}

// evaluate runs q over the whole stream with the standalone engine —
// one runner, or one runner per key for a keyed query — and hands
// every match to emit, the final flushes included. ag, when non-nil,
// makes the evaluation aggregate-only: matches are folded into it.
func evaluate(q *compiledQuery, s *stream, ag *engine.Aggregator, emit func([]engine.Match) error) error {
	if q.spec.Key == "" {
		r := engine.New(q.auto, q.runnerOptions(ag)...)
		for i := range s.events {
			ms, err := r.Step(&s.events[i])
			if err != nil {
				return err
			}
			if err := emit(ms); err != nil {
				return err
			}
		}
		return emit(r.Flush())
	}
	if ag != nil {
		return fmt.Errorf("query %s: no standalone reference for a keyed aggregate", q.spec.ID)
	}
	perKey := make(map[event.Value]*engine.Runner)
	var order []event.Value
	for i := range s.events {
		e := &s.events[i]
		r := perKey[e.Attrs[0]]
		if r == nil {
			r = engine.New(q.auto, q.runnerOptions(nil)...)
			perKey[e.Attrs[0]] = r
			order = append(order, e.Attrs[0])
		}
		ms, err := r.Step(e)
		if err != nil {
			return err
		}
		if err := emit(ms); err != nil {
			return err
		}
	}
	for _, k := range order {
		if err := emit(perKey[k].Flush()); err != nil {
			return err
		}
	}
	return nil
}

// standalone evaluates q over the whole stream; lines asks for every
// match encoded (the followed query's reference lines).
func standalone(q *compiledQuery, s *stream, lines bool) (*reference, error) {
	ref := &reference{}
	var ag *engine.Aggregator
	if q.plan != nil {
		ag = engine.NewAggregator(q.plan)
	}
	err := evaluate(q, s, ag, func(ms []engine.Match) error {
		ref.count += int64(len(ms))
		if !lines {
			return nil
		}
		for _, m := range ms {
			b, err := engine.MatchJSON(m, q.auto.Schema)
			if err != nil {
				return err
			}
			ref.lines = append(ref.lines, b)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if ag != nil {
		ref.count = int64(ag.Folds())
		ref.stats, _, _ = ag.Stats(0)
	}
	return ref, nil
}

// triggerIndex returns the index of the first event whose time exceeds
// horizon (len(events) when none does): the release trigger of a match
// whose window closes at horizon = first + WITHIN.
func triggerIndex(events []event.Event, horizon event.Time) int {
	return sort.Search(len(events), func(i int) bool { return events[i].Time > horizon })
}

// batchOf returns the index of the batch holding event index i.
func batchOf(batches []batch, i int) int {
	return sort.Search(len(batches), func(b int) bool { return batches[b].hi > i })
}

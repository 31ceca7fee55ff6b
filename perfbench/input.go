package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"repro/internal/automaton"
	"repro/internal/chemo"
	"repro/internal/cluster"
	"repro/internal/event"
)

const (
	// batchSize is the events per ingest request, the batch size the
	// repository's block benchmarks use.
	batchSize = 256
	// clusterSlots and clusterParts shape the cluster workload's
	// keyspace: two partitions of eight slots each.
	clusterSlots = 16
	clusterParts = 2
	// supervisedClosers and keyedClosers are the lengths of a phase's
	// closing run, so that the phase's matches leave before the next
	// phase starts: a supervised query's zero-slack reorderer steps an
	// event only once a later timestamp arrives, and the sharded
	// executor broadcasts a merge watermark once 64 events have been
	// dispatched. They only shape the input: the counts a phase must
	// reach come from the in-process replay (replay.go), so a changed
	// release policy moves the targets, not the check.
	supervisedClosers = 2
	keyedClosers      = 65
	// openShare is the share of the measured seconds given to the
	// open-loop phase.
	openShare = 0.6
	// closedSegments splits the closed loop into segments, each ending
	// with closing events and checked against the reference.
	closedSegments = 6
)

// batch is one pre-rendered POST /events body covering events[lo:hi].
type batch struct {
	lo, hi int
	body   []byte
}

// stream is a run's complete input: time-ordered events numbered by
// stream position (the Seq the server stamps), rendered into batches.
// Phase 0 is the open loop, phases 1..closedSegments the closed-loop
// segments; each phase ends with its closing event(s) inside the last
// tile's tail, so a phase's batches never share a tile with the next.
type stream struct {
	events   []event.Event
	batches  []batch
	phaseEnd []int // event index end of each phase
	batchEnd []int // batch index end of each phase
	maxID    int64
}

// openEnd is the number of open-loop batches.
func (s *stream) openEnd() int { return s.batchEnd[0] }

// tileSeed derives tile i's generator seed from the run seed
// (splitmix64), so tiles differ and a seed always yields one stream.
func tileSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// partitionOf returns the cluster partition owning an event's ID (0
// when the workload is not clustered).
func partitionOf(w *workload, e *event.Event) int {
	if !w.cluster {
		return 0
	}
	return partitionOfID(e.Attrs[0])
}

// partitionOfID returns the cluster partition owning an ID.
func partitionOfID(id event.Value) int {
	return cluster.SlotOf(id, clusterSlots) * clusterParts / clusterSlots
}

// buildStream generates the run's input: tiles of the workload's
// chemo profile, each displaced more than the largest WITHIN past the
// previous one, until the open-loop phase holds rate×openShare×seconds
// batches and the closed-loop phase w.closedEvents×seconds events.
func buildStream(w *workload, autos []*automaton.Automaton, seed int64, seconds int) (*stream, error) {
	var within event.Duration
	for _, a := range autos {
		if a.Within > within {
			within = a.Within
		}
	}
	targets := []int{int(math.Ceil(w.openRate*openShare*float64(seconds))) * batchSize}
	for i := 0; i < closedSegments; i++ {
		targets = append(targets, w.closedEvents*seconds/closedSegments)
	}
	s := &stream{maxID: int64(w.tile.Patients)}
	// Tiles generate one ahead in the background.
	tile := 0
	type generated struct {
		rel *event.Relation
		err error
	}
	gen := func(i int) <-chan generated {
		ch := make(chan generated, 1)
		go func() {
			cfg := w.tile
			cfg.Seed = tileSeed(seed, i)
			rel, err := chemo.Generate(cfg)
			ch <- generated{rel, err}
		}()
		return ch
	}
	ahead := gen(0)
	defer func() { <-ahead }()
	next := event.Time(math.MinInt64)
	for phase := range targets {
		var evs []event.Event
		for len(evs) < targets[phase] {
			g := <-ahead
			tile++
			ahead = gen(tile)
			if g.err != nil {
				return nil, g.err
			}
			src := g.rel.Events()
			shift := event.Time(0)
			if next != event.Time(math.MinInt64) {
				shift = next - src[0].Time
			}
			for _, e := range src {
				e.Time += shift
				evs = append(evs, e)
			}
			next = evs[len(evs)-1].Time + event.Time(within) + event.Time(event.Hour)
		}
		evs = insertClosers(w, autos, evs, s, within)
		base := len(s.events)
		s.events = append(s.events, evs...)
		s.phaseEnd = append(s.phaseEnd, len(s.events))
		for lo := base; lo < len(s.events); lo += batchSize {
			hi := lo + batchSize
			if hi > len(s.events) {
				hi = len(s.events)
			}
			s.batches = append(s.batches, batch{lo: lo, hi: hi})
		}
		s.batchEnd = append(s.batchEnd, len(s.batches))
	}
	for i := range s.events {
		s.events[i].Seq = i
	}
	schema := chemo.Schema()
	var wg sync.WaitGroup
	for half := 0; half < 2; half++ {
		wg.Add(1)
		go func(half int) {
			defer wg.Done()
			for i := half; i < len(s.batches); i += 2 {
				b := &s.batches[i]
				var buf []byte
				for j := b.lo; j < b.hi; j++ {
					buf = appendNDJSON(buf, &s.events[j], schema)
				}
				b.body = buf
			}
		}(half)
	}
	wg.Wait()
	return s, nil
}

// insertClosers places a phase's closing B event(s) with an unused ID.
// The server's WITHIN prune delivers a non-start event to a query only
// within WITHIN of the query's newest start event, so each closer sits
// at the earliest such limit over the queries (per partition in the
// cluster, one closer per partition): late enough to lie past the
// windows of the tile's last matches, early enough to be delivered. It
// is inserted in time order, so the tile's trailing noise follows it.
func insertClosers(w *workload, autos []*automaton.Automaton, evs []event.Event, s *stream, within event.Duration) []event.Event {
	lastStart := make([]event.Time, clusterParts)
	for p := range lastStart {
		lastStart[p] = event.Time(math.MaxInt64)
	}
	present := distinctValues(evs, autos)
	for _, a := range autos {
		if !present.reachable(a.RouteKeys()) {
			continue
		}
		rts := make([]*router, clusterParts)
		for p := range rts {
			rts[p] = newRouter(a)
		}
		for i := range evs {
			rts[partitionOf(w, &evs[i])].deliver(&evs[i])
		}
		for p, rt := range rts {
			if rt.lastStart != event.Time(math.MinInt64) && rt.lastStart < lastStart[p] {
				lastStart[p] = rt.lastStart
			}
		}
	}
	type closer struct {
		t  event.Time
		id int64
	}
	var cs []closer
	parts := 1
	if w.cluster {
		parts = clusterParts
	}
	for p := 0; p < parts; p++ {
		id := s.maxID + 1
		for w.cluster && partitionOfID(event.Int(id)) != p {
			id++
		}
		s.maxID = id
		t := lastStart[p] + event.Time(within)
		n := supervisedClosers
		if w.keyed() {
			n = keyedClosers
		}
		for k := 0; k < n; k++ {
			cs = append(cs, closer{t: t - event.Time(n-1-k), id: id})
		}
	}
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].t < cs[j].t })
	out := make([]event.Event, 0, len(evs)+len(cs))
	i := 0
	for _, c := range cs {
		for i < len(evs) && evs[i].Time <= c.t {
			out = append(out, evs[i])
			i++
		}
		out = append(out, event.Event{Time: c.t, Attrs: []event.Value{
			event.Int(c.id), event.String(chemo.BloodCount), event.Float(0), event.String("WHO-Tox"),
		}})
	}
	return append(out, evs[i:]...)
}

// valueSet holds, per attribute, the distinct values a stream carries
// in the attributes the automata route on.
type valueSet map[int]map[event.Value]bool

func distinctValues(evs []event.Event, autos []*automaton.Automaton) valueSet {
	vs := make(valueSet)
	for _, a := range autos {
		for _, k := range a.RouteKeys().Keys {
			vs[k.Attr] = make(map[event.Value]bool)
		}
	}
	for i := range evs {
		for a, set := range vs {
			set[evs[i].Attrs[a]] = true
		}
	}
	return vs
}

// reachable reports whether some event of the stream matches a route
// key, i.e. whether the server ever delivers to the query.
func (vs valueSet) reachable(rs automaton.RouteSet) bool {
	if rs.All {
		return true
	}
	for _, k := range rs.Keys {
		if vs[k.Attr][k.Val] {
			return true
		}
	}
	return false
}

// appendNDJSON renders one event as an ingest line:
// {"time":T,"attrs":{"ID":..,"L":..,"V":..,"U":..}}.
func appendNDJSON(b []byte, e *event.Event, schema *event.Schema) []byte {
	b = append(b, `{"time":`...)
	b = strconv.AppendInt(b, int64(e.Time), 10)
	b = append(b, `,"attrs":{`...)
	for i := 0; i < schema.NumFields(); i++ {
		f := schema.Field(i)
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, f.Name)
		b = append(b, ':')
		v := e.Attrs[i]
		switch f.Type {
		case event.TypeInt:
			b = strconv.AppendInt(b, v.Int64(), 10)
		case event.TypeFloat:
			b = strconv.AppendFloat(b, v.Float64(), 'g', -1, 64)
		default:
			b = strconv.AppendQuote(b, v.Str())
		}
	}
	return append(b, "}}\n"...)
}

// describe summarises the stream for the run log.
func (s *stream) describe() string {
	return fmt.Sprintf("%d events in %d batches (open loop %d batches, closed loop %d events)",
		len(s.events), len(s.batches), s.openEnd(), len(s.events)-s.phaseEnd[0])
}

package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/chemo"
	"repro/internal/paperdata"
)

// querySpec is one registration, rendered as the JSON body of
// POST /queries (the server.QuerySpec wire form).
type querySpec struct {
	ID     string `json:"id"`
	Query  string `json:"query"`
	Filter bool   `json:"filter,omitempty"`
	Key    string `json:"key,omitempty"`
}

// workload is one named input shape and registration set.
type workload struct {
	name string
	// tile is the chemo profile of one tile; each tile gets its own
	// seed derived from the run seed.
	tile chemo.Config
	// queries are registered in order; follow names the query whose
	// match stream is read live.
	queries []querySpec
	follow  string
	// cluster runs sesrouter in front of two sesd -cluster partitions.
	cluster bool
	// openRate is the open-loop schedule in batches per second.
	openRate float64
	// closedEvents sizes the closed-loop phase per measured second; it
	// is set from the workload's capacity so that each closed-loop
	// segment takes one to three seconds at -seconds 20. The open-loop
	// rates keep the SUT at a quarter to two fifths of that capacity.
	closedEvents int
}

// keyed reports whether the workload's queries run on the sharded
// per-key executor.
func (w *workload) keyed() bool { return w.queries[0].Key != "" }

// Query texts. Q1 is the paper's running example; Q2 and Q3 are the
// serving benchmark's overlapping chemotherapy patterns; P5 and P6
// are Experiment 3's exclusive and non-exclusive group patterns.
var (
	textQ1 = paperdata.QueryQ1Text
	textQ2 = bench.ServerQueryTexts[1]
	textQ3 = bench.ServerQueryTexts[2]
	textP5 = `PATTERN PERMUTE(c, d, p+) THEN (b)
WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B'
WITHIN 264h`
	textP6 = `PATTERN PERMUTE(c, d, p+) THEN (b)
WHERE c.L = 'P' AND d.L = 'P' AND p.L = 'P' AND b.L = 'B'
WITHIN 264h`
)

// sparseText is the i-th routable registration whose labels never
// occur in chemo data, so the routing index proves it irrelevant to
// every event (the many-tenants shape of the serving benchmark).
func sparseText(i int) string {
	return fmt.Sprintf(`PATTERN PERMUTE(a) THEN (z)
WHERE a.L = 'X%d' AND z.L = 'Y%d' AND a.ID = z.ID
WITHIN 264h`, i, i)
}

// ingestTile is the ingest-side tile: 64 patients, about 34.5k events
// of which 93% are noise.
func ingestTile() chemo.Config {
	c := chemo.Small()
	c.Patients = 64
	return c
}

// workloads are the benchmark's named workloads, in run order.
var workloads = []*workload{
	{
		// 100 registrations over noisy 64-patient tiles: per-event cost
		// is HTTP, decode, WAL and routing, so ingest-side changes show
		// and engine changes barely move it.
		name: "ingest",
		tile: ingestTile(),
		queries: func() []querySpec {
			qs := []querySpec{
				{ID: "q1", Query: textQ1, Filter: true},
				{ID: "q2", Query: textQ2, Filter: true},
				{ID: "q3", Query: textQ3, Filter: true},
				{ID: "q1agg", Query: textQ1 + "\nAGGREGATE count, avg(p.V) PER PARTITION ID", Filter: true},
			}
			for i := len(qs); i < 100; i++ {
				qs = append(qs, querySpec{ID: fmt.Sprintf("s%d", i), Query: sparseText(i)})
			}
			return qs
		}(),
		follow:       "q1",
		openRate:     120,
		closedEvents: 50000,
	},
	{
		// Experiment 3's P6 fold (large Omega) and P5 over small tiles:
		// stepping outweighs ingest about 10:1, so engine.step changes
		// show here and ingest-side changes barely move it.
		name: "engine",
		tile: chemo.Small(),
		queries: []querySpec{
			{ID: "p6agg", Query: textP6 + "\nAGGREGATE count, avg(p.V)", Filter: true},
			{ID: "p5", Query: textP5},
		},
		follow:       "p5",
		openRate:     88,
		closedEvents: 35000,
	},
	{
		// About 10k patients with low noise on the sharded per-key
		// executor: per-key state, its memory and its key-bounded
		// release are the work. Each tile holds one cycle per patient;
		// patients recur in every tile. Not gated: its closed-loop
		// throughput is bimodal from segment to segment.
		name: "keys",
		tile: chemo.Config{
			Patients:         10000,
			CyclesPerPatient: 1,
			CycleGapDays:     21,
			StartSpreadDays:  30,
			NoisePerDay:      0.02,
			NoiseTypes:       4,
		},
		queries: []querySpec{
			{ID: "q1", Query: textQ1, Key: "ID"},
			{ID: "cdb", Query: textQ3, Key: "ID"},
		},
		follow:       "q1",
		openRate:     55,
		closedEvents: 10000,
	},
	{
		// sesrouter over two sesd partitions on the ingest tile shape:
		// router split, fan-out and the polling merge set cost and lag.
		// Not gated: the merged Q1 stream differs from single-node
		// evaluation, so its correctness check fails.
		name: "cluster",
		tile: ingestTile(),
		queries: []querySpec{
			{ID: "q1", Query: textQ1, Filter: true},
			{ID: "p5", Query: textP5, Filter: true},
		},
		follow:       "q1",
		cluster:      true,
		openRate:     200,
		closedEvents: 40000,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

package bench

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/pkg/dyncq"
)

// This file implements the multi-query phase: K named queries (mixed
// core/ivm/recompute) registered in ONE dyncq.Workspace, replaying one
// update stream in batches. It measures what the workspace front door
// claims: the shared store is mutated once per batch (its mutation
// count is independent of K, recorded against the sum over K
// independent one-query workspaces), every query's result stays
// identical to an independent one-query workspace replaying the same
// stream, and the per-query maintenance cost splits out via the handles'
// pipeline timers.

// NamedQuery is one registered query of a multi-query case.
type NamedQuery struct {
	// Name is the registration name in the workspace and the label in
	// the report.
	Name string
	// Query is the maintained query.
	Query *cq.Query
	// Force pins the strategy (StrategyAuto routes by classification).
	Force dyncq.Strategy
}

// MultiConfig describes one multi-query benchmark case.
type MultiConfig struct {
	// Name labels the case in the report.
	Name string
	// Queries are registered in order in one shared workspace.
	Queries []NamedQuery
	// Initial is bulk-loaded as the preprocessing phase.
	Initial []dyndb.Update
	// Stream is the measured phase, applied in chunks of BatchSize.
	Stream []dyndb.Update
	// BatchSize is the chunk size of the measured phase (0 = 512).
	BatchSize int
	// Repeat runs the shared measurement this many times, keeping the
	// best latencies (0 or 1 = single run). The solo comparison runs
	// once — it feeds the correctness check and the mutation counts,
	// which are deterministic.
	Repeat int
	// Workers lists the worker counts of the scaling phase: for every
	// count the same stream is replayed through a fresh workspace built
	// with that many workers (parallel store phase, per-handle fan-out,
	// per-engine shard workers) and a pinned shard count, so the
	// recorded speedups compare identical layouts. Include 1 for the
	// baseline the speedups are computed against. Empty = skip.
	Workers []int
}

// scalingShards is the pinned core-engine and store shard count of the
// multi-query scaling phase: every worker count runs the same sharded
// layout, so speedups measure workers, not layout changes — and the
// byte-identical check across worker counts is meaningful (enumeration
// order depends on the shard count, not the worker count).
const scalingShards = 8

// MultiScalingResult measures one worker count of the scaling phase.
type MultiScalingResult struct {
	Workers int   `json:"workers"`
	TotalNS int64 `json:"total_ns"`
	// UpdatesPerSec is the stream-level throughput; SpeedupVs1 is
	// TotalNS(workers=1)/TotalNS (0 if no workers=1 entry ran).
	UpdatesPerSec float64 `json:"updates_per_sec"`
	SpeedupVs1    float64 `json:"speedup_vs_1,omitempty"`
	// MatchesWorkers1 reports whether every query's final result —
	// including the enumeration order of core backends — is
	// byte-identical to the workers=1 run of the same layout.
	MatchesWorkers1 bool `json:"matches_workers_1"`
	// Alloc is the allocator traffic of the shared batched stream at this
	// worker count, per stream update (process-wide, all workers summed).
	Alloc AllocStats `json:"alloc"`
}

// MultiQueryResult is the per-query slice of a multi-query case.
type MultiQueryResult struct {
	Name     string `json:"name"`
	Query    string `json:"query"`
	Strategy string `json:"strategy"`
	// MaintainNS summarises this query's per-batch maintenance latency
	// inside the shared pipeline (delta hooks + batch fan-out), from the
	// handle's pipeline timer.
	MaintainNS Percentiles `json:"maintain_ns"`
	// MaintainTotalNS is the query's total maintenance time over the
	// stream; the sum over queries plus the store time is the shared
	// pipeline's cost.
	MaintainTotalNS int64 `json:"maintain_total_ns"`
	// Count is |ϕ(D)| after the stream; MatchesSolo reports whether the
	// result (and for core backends the exact enumeration order) equals
	// an independent one-query workspace's replay of the same stream.
	Count       uint64 `json:"count"`
	MatchesSolo bool   `json:"matches_solo"`
	// SoloUpdateNS is the per-batch latency of the solo workspace
	// replaying the same chunks — the cost of serving this query alone.
	SoloUpdateNS Percentiles `json:"solo_update_ns"`
	SoloTotalNS  int64       `json:"solo_total_ns"`
}

// MultiResult is the full report of one multi-query case.
type MultiResult struct {
	Name       string `json:"name"`
	NumQueries int    `json:"num_queries"`
	InitSize   int    `json:"initial_size"`
	StreamSize int    `json:"stream_size"`
	BatchSize  int    `json:"batch_size"`
	Batches    int    `json:"batches"`
	NetApplied int    `json:"net_applied"`
	// SharedStoreMutations is the shared store's mutation count over the
	// measured stream; SoloStoreMutations is the sum over the K
	// independent one-query workspaces (≈ K × shared — the duplication the
	// workspace removes).
	SharedStoreMutations uint64 `json:"shared_store_mutations"`
	SoloStoreMutations   uint64 `json:"solo_store_mutations"`
	// SharedTotalNS is the wall time of the whole batched stream through
	// the workspace; SoloTotalNS sums the solo workspaces' replays.
	SharedTotalNS int64   `json:"shared_total_ns"`
	SoloTotalNS   int64   `json:"solo_total_ns"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	// BatchNS summarises the shared pipeline's whole-batch latencies
	// (all K queries maintained per batch).
	BatchNS Percentiles `json:"batch_ns"`
	// Alloc is the allocator traffic of the shared batched stream, per
	// stream update — all K queries' maintenance included, so it compares
	// against the sum of the solo workspaces' traffic.
	Alloc   AllocStats         `json:"alloc"`
	Queries []MultiQueryResult `json:"queries"`
	// Scaling holds the worker-scaling phase, one entry per
	// MultiConfig.Workers (pinned shard layout, see scalingShards).
	Scaling []MultiScalingResult `json:"scaling,omitempty"`
}

// RunMulti measures one multi-query case: the shared workspace replay
// (Repeat times, best kept) and one solo-workspace replay per
// query for the correctness check, the solo latencies, and the
// mutation-count comparison.
func RunMulti(cfg MultiConfig) (MultiResult, error) {
	size := cfg.BatchSize
	if size <= 0 {
		size = 512
	}
	res := MultiResult{
		Name:       cfg.Name,
		NumQueries: len(cfg.Queries),
		InitSize:   len(cfg.Initial),
		StreamSize: len(cfg.Stream),
		BatchSize:  size,
	}
	initDB := dyndb.New()
	if err := initDB.ApplyAll(cfg.Initial); err != nil {
		return res, fmt.Errorf("multi case %s: building initial database: %w", cfg.Name, err)
	}
	reps := cfg.Repeat
	if reps < 1 {
		reps = 1
	}

	var sharedTuples [][][]dyncq.Value
	for rep := 0; rep < reps; rep++ {
		one, tuples, err := runMultiShared(cfg, initDB, size, 0, 0)
		if err != nil {
			return res, err
		}
		if rep == 0 {
			res.Batches = one.Batches
			res.NetApplied = one.NetApplied
			res.SharedStoreMutations = one.SharedStoreMutations
			res.SharedTotalNS = one.SharedTotalNS
			res.BatchNS = one.BatchNS
			res.Alloc = one.Alloc
			res.Queries = one.Queries
			sharedTuples = tuples
			continue
		}
		if one.SharedTotalNS < res.SharedTotalNS {
			res.SharedTotalNS = one.SharedTotalNS
		}
		res.BatchNS = minPercentiles(res.BatchNS, one.BatchNS)
		res.Alloc = minAlloc(res.Alloc, one.Alloc)
		for i := range res.Queries {
			res.Queries[i].MaintainNS = minPercentiles(res.Queries[i].MaintainNS, one.Queries[i].MaintainNS)
			if one.Queries[i].MaintainTotalNS < res.Queries[i].MaintainTotalNS {
				res.Queries[i].MaintainTotalNS = one.Queries[i].MaintainTotalNS
			}
		}
	}

	// Solo comparison: one independent one-query workspace per query over
	// the same stream, same chunks.
	for i, nq := range cfg.Queries {
		solo, soloH, err := soloWorkspace(nq.Query, nq.Force, 0)
		if err != nil {
			return res, fmt.Errorf("multi case %s, query %s: %w", cfg.Name, nq.Name, err)
		}
		if err := solo.Load(initDB); err != nil {
			return res, fmt.Errorf("multi case %s, query %s: %w", cfg.Name, nq.Name, err)
		}
		base := solo.StoreMutations()
		lat := make([]int64, 0, len(cfg.Stream)/size+1)
		for from := 0; from < len(cfg.Stream); from += size {
			to := from + size
			if to > len(cfg.Stream) {
				to = len(cfg.Stream)
			}
			t0 := time.Now()
			if _, err := solo.ApplyBatch(cfg.Stream[from:to]); err != nil {
				return res, fmt.Errorf("multi case %s, query %s: %w", cfg.Name, nq.Name, err)
			}
			lat = append(lat, time.Since(t0).Nanoseconds())
		}
		res.SoloStoreMutations += solo.StoreMutations() - base
		for _, ns := range lat {
			res.Queries[i].SoloTotalNS += ns
		}
		res.SoloTotalNS += res.Queries[i].SoloTotalNS
		res.Queries[i].SoloUpdateNS = percentiles(lat)
		res.Queries[i].MatchesSolo = sameResult(res.Queries[i].Strategy, sharedTuples[i], soloH.Tuples())
	}
	if res.SharedTotalNS > 0 {
		res.UpdatesPerSec = float64(len(cfg.Stream)) / (float64(res.SharedTotalNS) / 1e9)
	}

	// Scaling phase: the same stream through fresh workspaces built with
	// each worker count, shard layout pinned (scalingShards) so the runs
	// are byte-comparable and the speedups measure workers only. The
	// workers=1 run is the baseline for both the speedups and the
	// byte-identical bit: it runs first regardless of its position in
	// cfg.Workers, and when the list omits it entirely an unrecorded
	// workers=1 measurement still runs so the comparisons stay
	// meaningful.
	measure := func(workers int) (MultiScalingResult, [][][]dyncq.Value, error) {
		sr := MultiScalingResult{Workers: workers}
		var tuples [][][]dyncq.Value
		for rep := 0; rep < reps; rep++ {
			one, tu, err := runMultiShared(cfg, initDB, size, workers, scalingShards)
			if err != nil {
				return sr, nil, err
			}
			if rep == 0 || one.SharedTotalNS < sr.TotalNS {
				sr.TotalNS = one.SharedTotalNS
			}
			if rep == 0 {
				sr.Alloc = one.Alloc
			} else {
				sr.Alloc = minAlloc(sr.Alloc, one.Alloc)
			}
			tuples = tu
		}
		if sr.TotalNS > 0 {
			sr.UpdatesPerSec = float64(len(cfg.Stream)) / (float64(sr.TotalNS) / 1e9)
		}
		return sr, tuples, nil
	}
	wantScaling := false
	for _, workers := range cfg.Workers {
		if workers >= 1 {
			wantScaling = true
		}
	}
	if !wantScaling {
		return res, nil
	}
	baseSR, baseTuples, err := measure(1)
	if err != nil {
		return res, err
	}
	baseSR.MatchesWorkers1 = true
	baseSR.SpeedupVs1 = 1
	for _, workers := range cfg.Workers {
		if workers < 1 {
			continue
		}
		if workers == 1 {
			res.Scaling = append(res.Scaling, baseSR)
			continue
		}
		sr, tuples, err := measure(workers)
		if err != nil {
			return res, err
		}
		sr.MatchesWorkers1 = true
		for i := range cfg.Queries {
			// Pinned shard count ⇒ core enumeration order must agree
			// exactly; the other strategies are canonicalised inside
			// sameResult.
			if !sameResult(res.Queries[i].Strategy, tuples[i], baseTuples[i]) {
				sr.MatchesWorkers1 = false
			}
		}
		if baseSR.TotalNS > 0 && sr.TotalNS > 0 {
			sr.SpeedupVs1 = float64(baseSR.TotalNS) / float64(sr.TotalNS)
		}
		res.Scaling = append(res.Scaling, sr)
	}
	return res, nil
}

// runMultiShared is one repetition of the shared-workspace measurement
// with the given worker count and (for workers > 0) pinned engine/store
// shard counts; workers = 0 is the sequential default layout. It
// returns the per-query final tuples so the caller can check them
// against the independent one-query workspaces (or across worker counts).
func runMultiShared(cfg MultiConfig, initDB *dyndb.Database, size, workers, shards int) (MultiResult, [][][]dyncq.Value, error) {
	var zero MultiResult
	ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{Workers: workers, StoreShards: shards})
	handles := make([]*dyncq.Handle, len(cfg.Queries))
	for i, nq := range cfg.Queries {
		h, err := ws.RegisterQuery(nq.Name, nq.Query, dyncq.Options{Force: nq.Force, Shards: shards})
		if err != nil {
			return zero, nil, fmt.Errorf("multi case %s: register %s: %w", cfg.Name, nq.Name, err)
		}
		handles[i] = h
	}
	if err := ws.Load(initDB); err != nil {
		return zero, nil, fmt.Errorf("multi case %s: load: %w", cfg.Name, err)
	}

	res := MultiResult{Queries: make([]MultiQueryResult, len(cfg.Queries))}
	for i, h := range handles {
		res.Queries[i] = MultiQueryResult{
			Name:     h.Name(),
			Query:    h.Query().String(),
			Strategy: h.Strategy().String(),
		}
	}
	mutBase := ws.StoreMutations()
	batchLat := make([]int64, 0, len(cfg.Stream)/size+1)
	perQueryLat := make([][]int64, len(handles))
	lastNS := make([]int64, len(handles))
	am := startAllocMeter()
	for from := 0; from < len(cfg.Stream); from += size {
		to := from + size
		if to > len(cfg.Stream) {
			to = len(cfg.Stream)
		}
		t0 := time.Now()
		n, err := ws.ApplyBatch(cfg.Stream[from:to])
		batchLat = append(batchLat, time.Since(t0).Nanoseconds())
		if err != nil {
			return zero, nil, fmt.Errorf("multi case %s: batch: %w", cfg.Name, err)
		}
		res.NetApplied += n
		for i, h := range handles {
			ns, _ := h.MaintenanceNS()
			perQueryLat[i] = append(perQueryLat[i], ns-lastNS[i])
			lastNS[i] = ns
		}
	}
	res.Alloc = am.perOp(len(cfg.Stream))
	res.Batches = len(batchLat)
	res.SharedStoreMutations = ws.StoreMutations() - mutBase
	for _, ns := range batchLat {
		res.SharedTotalNS += ns
	}
	res.BatchNS = percentiles(batchLat)
	tuples := make([][][]dyncq.Value, len(handles))
	for i, h := range handles {
		res.Queries[i].MaintainTotalNS = lastNS[i]
		res.Queries[i].MaintainNS = percentiles(perQueryLat[i])
		res.Queries[i].Count = h.Count()
		tuples[i] = h.Tuples()
	}
	return res, tuples, nil
}

// sameResult compares a shared query's final tuples against its solo
// workspace's: core backends must agree in exact enumeration order; the
// other backends enumerate in unspecified order, so their results are
// canonicalised by sorting first.
func sameResult(strategy string, shared, solo [][]dyncq.Value) bool {
	if strategy != dyncq.StrategyCore.String() {
		sortTupleSet(shared)
		sortTupleSet(solo)
	}
	if len(shared) != len(solo) {
		return false
	}
	if len(shared) == 0 {
		return true
	}
	return reflect.DeepEqual(shared, solo)
}

func sortTupleSet(ts [][]dyncq.Value) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		for k := range a {
			if k >= len(b) {
				return false
			}
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

func minPercentiles(a, b Percentiles) Percentiles {
	m := func(x, y int64) int64 {
		if y < x {
			return y
		}
		return x
	}
	return Percentiles{P50: m(a.P50, b.P50), P90: m(a.P90, b.P90), P99: m(a.P99, b.P99), Max: m(a.Max, b.Max)}
}

// RunMultiAll measures all multi-query cases.
func RunMultiAll(cases []MultiConfig) ([]MultiResult, error) {
	var out []MultiResult
	for _, cfg := range cases {
		mr, err := RunMulti(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, mr)
	}
	return out, nil
}

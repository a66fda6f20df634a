// Package bench is the benchmark harness: it drives update streams
// (typically produced by internal/workload) through the maintenance
// strategies behind pkg/dyncq and measures the three quantities the
// paper's bounds are stated in — preprocessing time, per-update time,
// and enumeration delay — plus counting time. Results marshal to JSON so
// every PR's performance claims are recorded in a comparable artifact.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/qtree"
	"dyncq/pkg/dyncq"
)

// Config describes one benchmark case: a query, a preprocessing stream
// (the initial database D0), and a measured update stream.
type Config struct {
	// Name labels the case in the report.
	Name string
	// Query is the maintained query.
	Query *cq.Query
	// Initial is replayed as the preprocessing phase (timed as one block).
	Initial []dyndb.Update
	// Stream is the measured phase: each update is timed individually.
	Stream []dyndb.Update
	// MaxEnumerate caps the number of tuples pulled during the delay
	// measurement (0 = enumerate everything).
	MaxEnumerate int
	// BatchSizes lists the chunk sizes of the batch phase: for every size
	// a fresh workspace bulk-loads Initial and applies Stream through
	// ApplyBatch in chunks of that size, so the report shows how batching
	// amortises maintenance against the per-update loop. Empty = skip.
	BatchSizes []int
	// Repeat runs every strategy measurement this many times and records
	// the best latency per metric (noise in wall-clock measurement is
	// one-sided, so best-of-R is the robust estimator the regression gate
	// needs). 0 or 1 means a single run.
	Repeat int
	// Workers lists the worker counts of the parallel phase: for every
	// count a fresh workspace built with that many Workers bulk-loads
	// Initial and applies Stream through ApplyBatched, so the
	// report shows how sharded parallel application scales. Include 1 to
	// record the locked-but-sequential baseline the speedups are computed
	// against. Empty = skip.
	Workers []int
	// ParallelBatch is the chunk size of the parallel phase (0 = 512).
	ParallelBatch int
}

// Percentiles summarises a latency sample in nanoseconds.
type Percentiles struct {
	P50 int64 `json:"p50_ns"`
	P90 int64 `json:"p90_ns"`
	P99 int64 `json:"p99_ns"`
	Max int64 `json:"max_ns"`
}

// percentiles computes the summary of a sample; it sorts its argument.
func percentiles(sample []int64) Percentiles {
	if len(sample) == 0 {
		return Percentiles{}
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	at := func(q float64) int64 {
		i := int(q * float64(len(sample)-1))
		return sample[i]
	}
	return Percentiles{
		P50: at(0.50),
		P90: at(0.90),
		P99: at(0.99),
		Max: sample[len(sample)-1],
	}
}

// BatchResult measures one batch size of the batch phase: the stream is
// applied through Workspace.ApplyBatch in chunks of BatchSize on a
// fresh, bulk-loaded workspace.
type BatchResult struct {
	BatchSize int `json:"batch_size"`
	// Batches is how many chunks the stream split into; NetApplied is the
	// total number of net commands that changed the database (coalescing
	// makes this ≤ the stream length).
	Batches    int `json:"batches"`
	NetApplied int `json:"net_applied"`
	// TotalNS is the wall time of the whole batched stream and
	// UpdatesPerSec the resulting stream-level throughput; BatchNS
	// summarises per-batch latencies.
	TotalNS       int64       `json:"total_ns"`
	UpdatesPerSec float64     `json:"updates_per_sec"`
	BatchNS       Percentiles `json:"batch_ns"`
	// Alloc is the allocator traffic of the batched stream, per stream
	// update (same denominator as the per-update loop, so the two phases
	// are directly comparable).
	Alloc AllocStats `json:"alloc"`
}

// ParallelResult measures one worker count of the parallel phase: the
// stream applied through Workspace.ApplyBatched on a fresh, bulk-loaded
// workspace with Workers shard workers per batch.
type ParallelResult struct {
	Workers   int `json:"workers"`
	BatchSize int `json:"batch_size"`
	// Sharded reports whether the parallel path actually engaged
	// (core backend with >1 worker); false means the run went through the
	// sequential pipeline under the lock, measuring pure lock overhead.
	Sharded    bool  `json:"sharded"`
	NetApplied int   `json:"net_applied"`
	TotalNS    int64 `json:"total_ns"`
	// UpdatesPerSec is the aggregate stream-level throughput; SpeedupVs1
	// is TotalNS(workers=1)/TotalNS for the same case and strategy (0 if
	// no workers=1 entry was measured).
	UpdatesPerSec float64 `json:"updates_per_sec"`
	SpeedupVs1    float64 `json:"speedup_vs_1,omitempty"`
	// Alloc is the allocator traffic per stream update, summed over all
	// worker goroutines (MemStats deltas are process-wide).
	Alloc AllocStats `json:"alloc"`
}

// StrategyResult is the measurement of one strategy on one case.
type StrategyResult struct {
	Strategy string `json:"strategy"`
	// PreprocessNS is the wall time of replaying Initial one update at a
	// time; BulkLoadNS is the wall time of Workspace.Load with the same
	// initial database on a fresh workspace (0 if Initial is empty).
	PreprocessNS int64 `json:"preprocess_ns"`
	BulkLoadNS   int64 `json:"bulk_load_ns,omitempty"`
	// PreprocessAlloc is the allocator traffic of the preprocessing
	// replay, per initial update.
	PreprocessAlloc AllocStats `json:"preprocess_alloc"`
	// Updates is len(Stream); UpdateNS summarises per-update latencies
	// and UpdatesPerSec the resulting throughput.
	Updates       int         `json:"updates"`
	UpdateTotalNS int64       `json:"update_total_ns"`
	UpdatesPerSec float64     `json:"updates_per_sec"`
	UpdateNS      Percentiles `json:"update_ns"`
	// UpdateAlloc is the allocator traffic of the measured per-update
	// loop, per update — the headline number for the slab and interning
	// work (see internal/bench/alloc.go).
	UpdateAlloc AllocStats `json:"update_alloc"`
	// CountNS is the time of one Count() call after the stream; Count is
	// its result.
	CountNS int64  `json:"count_ns"`
	Count   uint64 `json:"count"`
	// EnumeratedTuples is how many tuples the delay measurement pulled;
	// DelayNS summarises the per-tuple delays (first tuple included).
	EnumeratedTuples int         `json:"enumerated_tuples"`
	DelayNS          Percentiles `json:"delay_ns"`
	// EnumerateAlloc is the allocator traffic of the delay measurement,
	// per enumerated tuple — the decode-boundary cost of interning.
	EnumerateAlloc AllocStats `json:"enumerate_alloc"`
	// Batches holds the batch phase, one entry per Config.BatchSizes.
	Batches []BatchResult `json:"batches,omitempty"`
	// Parallel holds the parallel phase, one entry per Config.Workers.
	Parallel []ParallelResult `json:"parallel,omitempty"`
}

// CaseResult is the full report for one benchmark case.
type CaseResult struct {
	Name          string           `json:"name"`
	Query         string           `json:"query"`
	QHierarchical bool             `json:"q_hierarchical"`
	InitialSize   int              `json:"initial_size"`
	StreamSize    int              `json:"stream_size"`
	Strategies    []StrategyResult `json:"strategies"`
}

// Report is the top-level JSON artifact.
type Report struct {
	CreatedUnix int64  `json:"created_unix"`
	GoVersion   string `json:"go_version,omitempty"`
	// NumCPU and Gomaxprocs record the parallel capacity of the machine
	// the report was produced on: recorded speedups are meaningless
	// without them (a 1-core container can only ever report ≈1×, see
	// the BENCH_PR3 episode in the ROADMAP).
	NumCPU     int           `json:"num_cpu,omitempty"`
	Gomaxprocs int           `json:"gomaxprocs,omitempty"`
	Cases      []CaseResult  `json:"cases"`
	Sweeps     []SweepResult `json:"sweeps,omitempty"`
	// Multi holds the multi-query workspace phase (see RunMulti);
	// reports from before the workspace front door simply lack it.
	Multi []MultiResult `json:"multi,omitempty"`
	// Large holds the production-scale tier (see RunLarge); only
	// invocations that opt in (bench -large) produce it.
	Large []LargeResult `json:"large,omitempty"`
	// Server holds the serving front-door phase (see RunServer):
	// update-to-subscriber-notification latency and concurrent MVCC
	// reader throughput; reports from before the server existed lack it.
	Server []ServerResult `json:"server,omitempty"`
	// Read holds the snapshot-pin phase (see RunRead): cold vs hot pin
	// latency, reader throughput with and without concurrent commits,
	// and the cache hit rate; only invocations that opt in (bench
	// -read) produce it.
	Read []ReadResult `json:"read,omitempty"`
	// Notes carries free-form context an operator attached to the
	// artifact — e.g. the before/after allocation reductions recorded
	// when a memory refactor lands. Purely informational: the compare
	// gate never reads them.
	Notes []string `json:"notes,omitempty"`
}

// RunCase measures every given strategy on the case. Strategies that
// cannot serve the query (StrategyCore on a non-q-hierarchical query) are
// skipped silently, so callers can request all strategies uniformly.
func RunCase(cfg Config, strategies []dyncq.Strategy) (CaseResult, error) {
	res := CaseResult{
		Name:          cfg.Name,
		Query:         cfg.Query.String(),
		QHierarchical: qtree.IsQHierarchical(cfg.Query),
		InitialSize:   len(cfg.Initial),
		StreamSize:    len(cfg.Stream),
	}
	initDB := dyndb.New()
	if err := initDB.ApplyAll(cfg.Initial); err != nil {
		return res, fmt.Errorf("case %s: building initial database: %w", cfg.Name, err)
	}
	reps := cfg.Repeat
	if reps < 1 {
		reps = 1
	}
	for _, st := range strategies {
		var best StrategyResult
		skip := false
		for rep := 0; rep < reps; rep++ {
			sr, err := runStrategy(cfg, st, initDB)
			if err != nil {
				if st == dyncq.StrategyCore && !res.QHierarchical {
					skip = true // expected: the core engine refuses the query
					break
				}
				return res, fmt.Errorf("case %s, strategy %s: %w", cfg.Name, st, err)
			}
			if rep == 0 {
				best = sr
			} else {
				best = mergeBest(best, sr)
			}
		}
		if !skip {
			res.Strategies = append(res.Strategies, best)
		}
	}
	return res, nil
}

// mergeBest folds one repetition into the accumulated best-of result:
// latencies take the minimum, throughputs the maximum. Counts and sizes
// are identical across repetitions by construction.
func mergeBest(a, b StrategyResult) StrategyResult {
	minI := func(x, y int64) int64 {
		if y < x {
			return y
		}
		return x
	}
	minP := func(x, y Percentiles) Percentiles {
		return Percentiles{
			P50: minI(x.P50, y.P50),
			P90: minI(x.P90, y.P90),
			P99: minI(x.P99, y.P99),
			Max: minI(x.Max, y.Max),
		}
	}
	a.PreprocessNS = minI(a.PreprocessNS, b.PreprocessNS)
	a.BulkLoadNS = minI(a.BulkLoadNS, b.BulkLoadNS)
	a.PreprocessAlloc = minAlloc(a.PreprocessAlloc, b.PreprocessAlloc)
	a.UpdateTotalNS = minI(a.UpdateTotalNS, b.UpdateTotalNS)
	if b.UpdatesPerSec > a.UpdatesPerSec {
		a.UpdatesPerSec = b.UpdatesPerSec
	}
	a.UpdateNS = minP(a.UpdateNS, b.UpdateNS)
	a.UpdateAlloc = minAlloc(a.UpdateAlloc, b.UpdateAlloc)
	a.CountNS = minI(a.CountNS, b.CountNS)
	a.DelayNS = minP(a.DelayNS, b.DelayNS)
	a.EnumerateAlloc = minAlloc(a.EnumerateAlloc, b.EnumerateAlloc)
	for i := range a.Batches {
		if i >= len(b.Batches) {
			break
		}
		ab, bb := &a.Batches[i], b.Batches[i]
		ab.TotalNS = minI(ab.TotalNS, bb.TotalNS)
		if bb.UpdatesPerSec > ab.UpdatesPerSec {
			ab.UpdatesPerSec = bb.UpdatesPerSec
		}
		ab.BatchNS = minP(ab.BatchNS, bb.BatchNS)
		ab.Alloc = minAlloc(ab.Alloc, bb.Alloc)
	}
	for i := range a.Parallel {
		if i >= len(b.Parallel) {
			break
		}
		ap, bp := &a.Parallel[i], b.Parallel[i]
		ap.TotalNS = minI(ap.TotalNS, bp.TotalNS)
		if bp.UpdatesPerSec > ap.UpdatesPerSec {
			ap.UpdatesPerSec = bp.UpdatesPerSec
		}
		ap.Alloc = minAlloc(ap.Alloc, bp.Alloc)
	}
	fillSpeedups(a.Parallel)
	return a
}

// soloQueryName is the registration name of a one-query workspace.
const soloQueryName = "q"

// soloWorkspace returns a fresh workspace with q as its only registered
// query — the unit every single-query phase measures.
func soloWorkspace(q *cq.Query, st dyncq.Strategy, workers int) (*dyncq.Workspace, *dyncq.Handle, error) {
	ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{Workers: workers})
	h, err := ws.RegisterQuery(soloQueryName, q, dyncq.Options{Force: st})
	return ws, h, err
}

func runStrategy(cfg Config, st dyncq.Strategy, initDB *dyndb.Database) (StrategyResult, error) {
	ws, h, err := soloWorkspace(cfg.Query, st, 0)
	if err != nil {
		return StrategyResult{}, err
	}
	// Label with the resolved backend, not the request: StrategyAuto must
	// report which engine actually ran.
	sr := StrategyResult{Strategy: h.Strategy().String(), Updates: len(cfg.Stream)}

	am := startAllocMeter()
	start := time.Now()
	if err := ws.ApplyAll(cfg.Initial); err != nil {
		return sr, fmt.Errorf("preprocessing: %w", err)
	}
	sr.PreprocessNS = time.Since(start).Nanoseconds()
	sr.PreprocessAlloc = am.perOp(len(cfg.Initial))

	// Bulk-load comparison: the same initial database through the batch
	// pipeline on a fresh workspace.
	if len(cfg.Initial) > 0 {
		bulk, _, err := soloWorkspace(cfg.Query, st, 0)
		if err != nil {
			return sr, err
		}
		t0 := time.Now()
		if err := bulk.Load(initDB); err != nil {
			return sr, fmt.Errorf("bulk load: %w", err)
		}
		sr.BulkLoadNS = time.Since(t0).Nanoseconds()
	}

	lat := make([]int64, 0, len(cfg.Stream))
	am = startAllocMeter()
	for _, u := range cfg.Stream {
		t0 := time.Now()
		if _, err := ws.Apply(u); err != nil {
			return sr, fmt.Errorf("update %s: %w", u, err)
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	sr.UpdateAlloc = am.perOp(len(lat))
	for _, ns := range lat {
		sr.UpdateTotalNS += ns
	}
	if sr.UpdateTotalNS > 0 {
		sr.UpdatesPerSec = float64(len(lat)) / (float64(sr.UpdateTotalNS) / 1e9)
	}
	sr.UpdateNS = percentiles(lat)

	t0 := time.Now()
	sr.Count = h.Count()
	sr.CountNS = time.Since(t0).Nanoseconds()

	delays := make([]int64, 0, 1024)
	am = startAllocMeter()
	last := time.Now()
	h.Enumerate(func(_ []dyncq.Value) bool {
		now := time.Now()
		delays = append(delays, now.Sub(last).Nanoseconds())
		last = now
		return cfg.MaxEnumerate == 0 || len(delays) < cfg.MaxEnumerate
	})
	sr.EnumerateAlloc = am.perOp(len(delays))
	sr.EnumeratedTuples = len(delays)
	sr.DelayNS = percentiles(delays)

	// Batch phase: fresh workspace per size, bulk-loaded, stream applied in
	// chunks through ApplyBatch.
	for _, size := range cfg.BatchSizes {
		if size < 1 {
			continue
		}
		br, err := runBatched(cfg, st, initDB, size)
		if err != nil {
			return sr, fmt.Errorf("batch size %d: %w", size, err)
		}
		sr.Batches = append(sr.Batches, br)
	}

	// Parallel phase: fresh workspace per worker count.
	for _, workers := range cfg.Workers {
		if workers < 1 {
			continue
		}
		pr, err := runParallel(cfg, st, initDB, workers)
		if err != nil {
			return sr, fmt.Errorf("workers %d: %w", workers, err)
		}
		sr.Parallel = append(sr.Parallel, pr)
	}
	fillSpeedups(sr.Parallel)
	return sr, nil
}

// runParallel measures the stream through a workspace with the given
// worker count (sharded parallel batches on the core backend, the
// sequential pipeline elsewhere).
func runParallel(cfg Config, st dyncq.Strategy, initDB *dyndb.Database, workers int) (ParallelResult, error) {
	ws, _, err := soloWorkspace(cfg.Query, st, workers)
	if err != nil {
		return ParallelResult{}, err
	}
	if err := ws.Load(initDB); err != nil {
		return ParallelResult{}, err
	}
	size := cfg.ParallelBatch
	if size <= 0 {
		size = 512
	}
	sharded := workers > 1 && ws.Parallelism().QueryShards[soloQueryName] > 1
	pr := ParallelResult{Workers: workers, BatchSize: size, Sharded: sharded}
	am := startAllocMeter()
	t0 := time.Now()
	n, err := ws.ApplyBatched(cfg.Stream, size)
	pr.TotalNS = time.Since(t0).Nanoseconds()
	pr.Alloc = am.perOp(len(cfg.Stream))
	pr.NetApplied = n
	if err != nil {
		return pr, err
	}
	if pr.TotalNS > 0 {
		pr.UpdatesPerSec = float64(len(cfg.Stream)) / (float64(pr.TotalNS) / 1e9)
	}
	return pr, nil
}

// fillSpeedups recomputes SpeedupVs1 against the workers=1 entry.
func fillSpeedups(parallel []ParallelResult) {
	var base int64
	for _, p := range parallel {
		if p.Workers == 1 {
			base = p.TotalNS
			break
		}
	}
	for i := range parallel {
		if base > 0 && parallel[i].TotalNS > 0 {
			parallel[i].SpeedupVs1 = float64(base) / float64(parallel[i].TotalNS)
		} else {
			parallel[i].SpeedupVs1 = 0
		}
	}
}

func runBatched(cfg Config, st dyncq.Strategy, initDB *dyndb.Database, size int) (BatchResult, error) {
	ws, _, err := soloWorkspace(cfg.Query, st, 0)
	if err != nil {
		return BatchResult{}, err
	}
	if err := ws.Load(initDB); err != nil {
		return BatchResult{}, err
	}
	br := BatchResult{BatchSize: size}
	lat := make([]int64, 0, len(cfg.Stream)/size+1)
	am := startAllocMeter()
	for from := 0; from < len(cfg.Stream); from += size {
		to := from + size
		if to > len(cfg.Stream) {
			to = len(cfg.Stream)
		}
		t0 := time.Now()
		n, err := ws.ApplyBatch(cfg.Stream[from:to])
		lat = append(lat, time.Since(t0).Nanoseconds())
		br.NetApplied += n
		if err != nil {
			return br, err
		}
	}
	br.Alloc = am.perOp(len(cfg.Stream))
	br.Batches = len(lat)
	for _, ns := range lat {
		br.TotalNS += ns
	}
	if br.TotalNS > 0 {
		br.UpdatesPerSec = float64(len(cfg.Stream)) / (float64(br.TotalNS) / 1e9)
	}
	br.BatchNS = percentiles(lat)
	return br, nil
}

// Run measures all cases and assembles the report.
func Run(cases []Config, strategies []dyncq.Strategy) (Report, error) {
	rep := Report{
		CreatedUnix: time.Now().Unix(),
		NumCPU:      runtime.NumCPU(),
		Gomaxprocs:  runtime.GOMAXPROCS(0),
	}
	for _, cfg := range cases {
		cr, err := RunCase(cfg, strategies)
		if err != nil {
			return rep, err
		}
		rep.Cases = append(rep.Cases, cr)
	}
	return rep, nil
}

// WriteJSON writes the report to path, indented for readability.
func (r Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

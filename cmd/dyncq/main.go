// Command dyncq is the command-line front end of the repository: it
// loads a conjunctive query, classifies it, routes it to the best
// maintenance strategy (pkg/dyncq), applies update streams, and answers
// count/enumerate requests; its bench subcommand runs the benchmark
// harness (internal/bench) over generated workloads and writes a JSON
// report.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"dyncq/internal/bench"
	"dyncq/internal/cq"
	"dyncq/internal/dict"
	"dyncq/internal/dyndb"
	"dyncq/internal/qtree"
	"dyncq/internal/workload"
	"dyncq/pkg/dyncq"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "classify":
		err = cmdClassify(os.Args[2:])
	case "torture":
		err = cmdTorture(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "client":
		err = cmdClient(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dyncq: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dyncq:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: dyncq <subcommand> [flags]

Subcommands:
  run       load a database, apply an update stream to one shared
            workspace serving one or more live queries, count/enumerate
  bench     run the benchmark suite, write a JSON report
  classify  print the classification and routing decision for a query
  torture   run the seeded torture/soak matrix (internal/torture)
  serve     long-lived TCP query server: MVCC snapshot readers, live
            delta subscriptions (protocol: internal/server/wire.go)
  client    interactive line client for a running serve instance

Run 'dyncq <subcommand> -h' for flags.

Query syntax:     Q(x,y) :- R(x,y), S(y).   (head = free variables)
Stream syntax:    one update per line: +E(1,2) inserts, -E(1,2) deletes;
                  blank lines and #-comments are skipped. With run
                  -strings, tuple entries are arbitrary string constants
                  (dictionary-encoded) instead of int64 literals.
`)
}

// loadQuery resolves the -q/-qf flag pair.
func loadQuery(text, file string) (*cq.Query, error) {
	if (text == "") == (file == "") {
		return nil, fmt.Errorf("exactly one of -q (query text) and -qf (query file) is required")
	}
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		text = strings.TrimSpace(string(data))
	}
	return cq.Parse(text)
}

// queryFlags collects the repeatable -query flag.
type queryFlags []string

func (q *queryFlags) String() string { return strings.Join(*q, " ; ") }

func (q *queryFlags) Set(v string) error {
	*q = append(*q, v)
	return nil
}

// splitNamedQuery parses one -query argument: an optional "name=" prefix
// (identifier before a '=' that precedes the query head's parenthesis)
// followed by the query text. An empty returned name means "auto-name
// me" (the caller assigns q1, q2, … skipping names already taken).
func splitNamedQuery(arg string) (name, text string) {
	if eq := strings.IndexByte(arg, '='); eq > 0 {
		open := strings.IndexByte(arg, '(')
		if open < 0 || eq < open {
			candidate := strings.TrimSpace(arg[:eq])
			if candidate != "" && !strings.ContainsAny(candidate, " \t(),:-") {
				return candidate, strings.TrimSpace(arg[eq+1:])
			}
		}
	}
	return "", strings.TrimSpace(arg)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("dyncq run", flag.ExitOnError)
	qText := fs.String("q", "", "query text, e.g. 'Q(x) :- E(x,y), T(y)'")
	qFile := fs.String("qf", "", "file containing the query")
	var queries queryFlags
	fs.Var(&queries, "query", "live query, repeatable; 'name=Q(x) :- …' or bare query text (auto-named q1, q2, …). All registered queries share one database and one update stream.")
	dataFile := fs.String("data", "", "initial database stream (loaded before the update stream)")
	updFile := fs.String("updates", "", "update stream to apply")
	strategyName := fs.String("strategy", "auto", "maintenance strategy for every query: auto, core, ivm or recompute")
	batch := fs.Int("batch", 0, "apply streams in batches of this many updates (0 = one batch per stream)")
	parallel := fs.Int("parallel", 1, "shard workers per batch (>1: core backends apply shard deltas in parallel)")
	stringsMode := fs.Bool("strings", false, "parse stream tuple entries as string constants through the workspace dictionary instead of int64 literals")
	doCount := fs.Bool("count", false, "print |Q(D)| per query after the stream")
	doAnswer := fs.Bool("answer", false, "print whether Q(D) is nonempty, per query")
	doEnum := fs.Bool("enumerate", false, "print the result tuples, per query")
	limit := fs.Int("limit", 0, "cap on enumerated tuples per query (0 = all)")
	doStats := fs.Bool("stats", false, "print dictionary statistics (symbol count, encode hit rate) after the stream; most useful with -strings")
	if err := fs.Parse(args); err != nil {
		return err
	}
	type namedQuery struct {
		name string // "" = auto-name
		q    *cq.Query
	}
	var named []namedQuery
	for _, arg := range queries {
		name, text := splitNamedQuery(arg)
		q, err := cq.Parse(text)
		if err != nil {
			if name == "" {
				return fmt.Errorf("-query %q: %w", arg, err)
			}
			return fmt.Errorf("query %s: %w", name, err)
		}
		named = append(named, namedQuery{name, q})
	}
	if *qText != "" || *qFile != "" {
		q, err := loadQuery(*qText, *qFile)
		if err != nil {
			return err
		}
		named = append(named, namedQuery{"q", q})
	}
	if len(named) == 0 {
		return fmt.Errorf("at least one query is required (-q, -qf, or repeatable -query)")
	}
	// Auto-name the bare queries q1, q2, … skipping names the user chose
	// explicitly, so 'dyncq run -query "q2=…" -query "…"' cannot collide.
	taken := make(map[string]bool, len(named))
	for _, nq := range named {
		taken[nq.name] = nq.name != ""
	}
	next := 1
	for i := range named {
		if named[i].name != "" {
			continue
		}
		for ; ; next++ {
			if auto := fmt.Sprintf("q%d", next); !taken[auto] {
				named[i].name = auto
				taken[auto] = true
				break
			}
		}
	}
	strategy, err := dyncq.ParseStrategy(*strategyName)
	if err != nil {
		return err
	}

	ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{Workers: *parallel})
	for _, nq := range named {
		h, err := ws.RegisterQuery(nq.name, nq.q, dyncq.Options{Force: strategy})
		if err != nil {
			return err
		}
		fmt.Printf("query %-8s %s  [%s]\n", h.Name()+":", h.Query(), h.Strategy())
	}
	if *parallel > 1 {
		// Report the EFFECTIVE configuration from the workspace's own
		// introspection instead of re-deriving the shard heuristics.
		p := ws.Parallelism()
		var shardInfo []string
		for _, h := range ws.Handles() {
			if s := p.QueryShards[h.Name()]; s > 1 {
				shardInfo = append(shardInfo, fmt.Sprintf("%s=%d", h.Name(), s))
			}
		}
		detail := "no sharded query backends; store phase and handle fan-out only"
		if len(shardInfo) > 0 {
			detail = "query shards " + strings.Join(shardInfo, ",")
		}
		fmt.Printf("workers:  %d (store shards %d, %s)\n", p.Workers, p.StoreShards, detail)
	}
	var d *dict.Dict
	if *stringsMode {
		d = ws.Dict()
	}
	batchSize := *batch
	if batchSize <= 0 && *parallel > 1 {
		// Parallel workers need batches to fan out over; default to a
		// reasonable chunk instead of silently staying sequential.
		batchSize = 512
	}
	schema := ws.Schema()
	if *dataFile != "" {
		if err := loadDatabaseFile(ws, schema, *dataFile, d); err != nil {
			return err
		}
	}
	if *updFile != "" {
		if err := applyStreamFile(ws, schema, *updFile, batchSize, d); err != nil {
			return err
		}
	}
	fmt.Printf("database: %d tuples, active domain %d, %d store mutations\n",
		ws.Cardinality(), ws.ActiveDomainSize(), ws.StoreMutations())
	if *doStats {
		st := ws.Dict().Stats()
		fmt.Printf("dict:     %d symbols, %d encode hits / %d misses (hit rate %.1f%%)\n",
			st.Size, st.Hits, st.Misses, 100*st.HitRate())
	}
	for _, h := range ws.Handles() {
		if *doAnswer {
			fmt.Printf("answer %-8s %v\n", h.Name()+":", h.Answer())
		}
		if *doCount {
			fmt.Printf("count %-8s %d\n", h.Name()+":", h.Count())
		}
		if *doEnum {
			n := 0
			h.Enumerate(func(t []dyncq.Value) bool {
				fmt.Printf("%s%s\n", enumPrefix(len(named), h.Name()), formatTuple(t, d))
				n++
				return *limit == 0 || n < *limit
			})
			fmt.Printf("enumerated %d tuples for %s\n", n, h.Name())
		}
	}
	return nil
}

// enumPrefix labels enumerated tuples with their query when more than
// one query is live.
func enumPrefix(numQueries int, name string) string {
	if numQueries <= 1 {
		return ""
	}
	return name + ": "
}

// warnUnknown prints the typo warning for relations outside the query.
func warnUnknown(path string, unknown map[string]bool) {
	if len(unknown) == 0 {
		return
	}
	names := make([]string, 0, len(unknown))
	for r := range unknown {
		names = append(names, r)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "warning: %s: relations not in the query (likely a typo): %s\n",
		path, strings.Join(names, ", "))
}

// loadDatabaseFile reads an initial-database stream and feeds it to the
// workspace through the bulk Load path (reset-then-load, one counting
// pass + one weight pass on core backends) instead of replaying
// per-tuple updates. The single parse pass checks arities against the
// union query schema with line numbers and collects typo warnings. A
// non-nil dict switches the parser to string mode.
func loadDatabaseFile(ws *dyncq.Workspace, schema map[string]int, path string, d *dict.Dict) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sr := dyncq.NewStreamReader(f)
	if d != nil {
		sr.UseDict(d)
	}
	db := dyncq.NewDatabase()
	unknown := map[string]bool{}
	total := 0
	for {
		u, line, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if want, ok := schema[u.Rel]; !ok {
			unknown[u.Rel] = true
		} else if want != len(u.Tuple) {
			return fmt.Errorf("%s: line %d: %s has arity %d in the query, got tuple of length %d",
				path, line, u.Rel, want, len(u.Tuple))
		}
		if _, err := db.Apply(u); err != nil {
			return fmt.Errorf("%s: line %d: %w", path, line, err)
		}
		total++
	}
	warnUnknown(path, unknown)
	if err := ws.Load(db); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("loaded:   %d commands from %s (bulk load: %d tuples)\n", total, path, db.Cardinality())
	return nil
}

// applyStreamFile streams one update file into the workspace in a
// single parse pass via dyncq.ApplyStreamReader: commands are batched
// through ApplyBatch (one shared-store application fanned out to every
// registered query), arity mismatches against the union schema are
// reported with the offending line number, and relations outside every
// query earn a typo warning — spotted on the same pass, not a separate
// parse. A non-nil dict switches the parser to string mode.
func applyStreamFile(ws *dyncq.Workspace, schema map[string]int, path string, batchSize int, d *dict.Dict) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sr := dyncq.NewStreamReader(f)
	if d != nil {
		sr.UseDict(d)
	}
	unknown := map[string]bool{}
	total := 0
	applied, err := dyncq.ApplyStreamReader(ws, sr, batchSize, func(u dyncq.Update, _ int) {
		if _, ok := schema[u.Rel]; !ok {
			unknown[u.Rel] = true
		}
		total++
	})
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	warnUnknown(path, unknown)
	if batchSize > 0 {
		fmt.Printf("applied:  %d updates from %s in batches of %d (%d net changes)\n",
			total, path, batchSize, applied)
	} else {
		fmt.Printf("applied:  %d updates from %s (%d net changes)\n", total, path, applied)
	}
	return nil
}

// formatTuple renders one result tuple. This is the decode boundary of
// the interning pipeline: enumeration streams raw interned codes
// ([]dyncq.Value) all the way here, and only at this point — in string
// mode — are codes turned back into symbols, via the read-only
// TryDecode. One builder per tuple, no intermediate string slices.
func formatTuple(t []dyncq.Value, d *dict.Dict) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		if d != nil {
			if name, ok := d.TryDecode(v); ok {
				b.WriteString(name)
				continue
			}
		}
		b.WriteString(strconv.FormatInt(int64(v), 10))
	}
	b.WriteByte(')')
	return b.String()
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("dyncq classify", flag.ExitOnError)
	qText := fs.String("q", "", "query text")
	qFile := fs.String("qf", "", "file containing the query")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q, err := loadQuery(*qText, *qFile)
	if err != nil {
		return err
	}
	class := qtree.Classify(q)
	fmt.Printf("query: %s\n%s", q, class)
	h, err := dyncq.NewWorkspace(dyncq.WorkspaceOptions{}).RegisterQuery("q", q, dyncq.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("routing: %s\n", h.Strategy())
	return nil
}

func cmdBench(args []string) error {
	if len(args) > 0 && (args[0] == "-compare" || args[0] == "--compare") {
		return cmdBenchCompare(args[1:])
	}
	if len(args) > 0 && (args[0] == "-speedup" || args[0] == "--speedup") {
		return cmdBenchSpeedup(args[1:])
	}
	fs := flag.NewFlagSet("dyncq bench", flag.ExitOnError)
	out := fs.String("out", "BENCH_PR10.json", "output JSON path")
	seed := fs.Int64("seed", 1, "workload RNG seed")
	n := fs.Int("n", 300, "star and hard-sqet case size (node count / domain); random-qh uses a fixed small domain")
	streamLen := fs.Int("updates", 2000, "measured update-stream length per case")
	maxEnum := fs.Int("max-enumerate", 10000, "cap on tuples pulled during delay measurement")
	strategiesFlag := fs.String("strategies", "core,ivm,recompute", "comma-separated strategies to measure")
	batchesFlag := fs.String("batches", "64,512", "comma-separated batch sizes for the batch phase (empty = skip)")
	workersFlag := fs.String("workers", "1,2,4", "comma-separated worker counts for the parallel phase (empty = skip)")
	sweepFlag := fs.String("sweep", "100,200,400,800", "comma-separated database sizes for the star scaling sweep (empty = skip)")
	sweepUpdates := fs.Int("sweep-updates", 500, "measured update-stream length per sweep point")
	repeat := fs.Int("repeat", 3, "repetitions per measurement; the report keeps the best latencies (steadies the regression gate)")
	multi := fs.Bool("multi", true, "run the multi-query workspace phase (K queries over one shared store)")
	multiBatch := fs.Int("multi-batch", 256, "batch size of the multi-query phase")
	multiWorkersFlag := fs.String("multi-workers", "1,2,4", "comma-separated worker counts for the multi-query scaling phase (empty = skip)")
	serverPhase := fs.Bool("server", false, "run the server phase (internal/server front door: notify latency, concurrent MVCC reader throughput)")
	readPhase := fs.Bool("read", false, "run the read phase (snapshot pinning: cold vs hot pin latency, reader throughput, cache hit rate)")
	large := fs.Bool("large", false, "run the production-scale tier (grouped schema, Zipf stream, K live queries)")
	largeTuples := fs.Int("large-tuples", 1_000_000, "initial database size of the large tier")
	largeUpdates := fs.Int("large-updates", 100_000, "measured stream length of the large tier")
	largeQueries := fs.Int("large-queries", 64, "live query count of the large tier (multiple of 4; 4 per relation group)")
	largeBatch := fs.Int("large-batch", 1024, "batch size of the large tier's update phase")
	largeWorkersFlag := fs.String("large-workers", "1,2,4", "comma-separated worker counts for the large tier")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var strategies []dyncq.Strategy
	for _, name := range strings.Split(*strategiesFlag, ",") {
		st, err := dyncq.ParseStrategy(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		strategies = append(strategies, st)
	}
	batchSizes, err := parseIntList(*batchesFlag)
	if err != nil {
		return fmt.Errorf("-batches: %w", err)
	}
	workerCounts, err := parseIntList(*workersFlag)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	sweepSizes, err := parseIntList(*sweepFlag)
	if err != nil {
		return fmt.Errorf("-sweep: %w", err)
	}
	cases, err := DefaultSuite(*seed, *n, *streamLen, *maxEnum, batchSizes)
	if err != nil {
		return err
	}
	for i := range cases {
		cases[i].Repeat = *repeat
		cases[i].Workers = workerCounts
	}
	rep, err := bench.Run(cases, strategies)
	if err != nil {
		return err
	}
	if len(sweepSizes) > 0 {
		sweep, err := StarSweep(*seed, sweepSizes, *sweepUpdates, *maxEnum)
		if err != nil {
			return err
		}
		sweep.Repeat = *repeat
		sw, err := bench.RunSweep(sweep, strategies)
		if err != nil {
			return err
		}
		rep.Sweeps = append(rep.Sweeps, sw)
	}
	if *multi {
		multiWorkers, err := parseIntList(*multiWorkersFlag)
		if err != nil {
			return fmt.Errorf("-multi-workers: %w", err)
		}
		multiCases, err := DefaultMultiSuite(*seed, *n, *streamLen, *multiBatch, *repeat)
		if err != nil {
			return err
		}
		for i := range multiCases {
			multiCases[i].Workers = multiWorkers
		}
		rep.Multi, err = bench.RunMultiAll(multiCases)
		if err != nil {
			return err
		}
		// matches_solo and matches_workers_1 are correctness bits, not
		// latencies: a divergence between the shared workspace and an
		// independent session, or between worker counts, must fail the
		// bench run itself (and with it the CI smoke step) — the
		// percentile-diffing compare gate would never see it.
		for _, m := range rep.Multi {
			for _, q := range m.Queries {
				if !q.MatchesSolo {
					err = fmt.Errorf("multi case %s: query %s [%s] diverges from its independent session", m.Name, q.Name, q.Strategy)
					fmt.Fprintln(os.Stderr, "dyncq bench:", err)
				}
			}
			for _, sc := range m.Scaling {
				if !sc.MatchesWorkers1 {
					err = fmt.Errorf("multi case %s: workers=%d result diverges from workers=1", m.Name, sc.Workers)
					fmt.Fprintln(os.Stderr, "dyncq bench:", err)
				}
			}
		}
		if err != nil {
			return err
		}
	}
	if *large {
		if *largeQueries < 4 || *largeQueries%4 != 0 {
			return fmt.Errorf("-large-queries must be a positive multiple of 4 (4 queries per relation group), got %d", *largeQueries)
		}
		largeWorkers, err := parseIntList(*largeWorkersFlag)
		if err != nil {
			return fmt.Errorf("-large-workers: %w", err)
		}
		lcfg := bench.DefaultLargeConfig(*seed)
		lcfg.Groups = *largeQueries / 4
		lcfg.Tuples = *largeTuples
		lcfg.Updates = *largeUpdates
		lcfg.BatchSize = *largeBatch
		lcfg.Workers = largeWorkers
		lr, err := bench.RunLarge(lcfg)
		if err != nil {
			return err
		}
		rep.Large = append(rep.Large, lr)
		// Like matches_solo in the multi phase: cross-worker divergence
		// at scale is a correctness failure of the run itself, not a
		// latency for the compare gate to diff.
		for _, workers := range lr.Diverged() {
			err = fmt.Errorf("large tier %s: workers=%d result diverges from workers=1", lr.Name, workers)
			fmt.Fprintln(os.Stderr, "dyncq bench:", err)
		}
		if err != nil {
			return err
		}
	}
	if *serverPhase {
		rep.Server, err = bench.RunServerSuite(bench.DefaultServerSuite())
		if err != nil {
			return err
		}
	}
	if *readPhase {
		rep.Read, err = bench.RunReadSuite(bench.DefaultReadSuite())
		if err != nil {
			return err
		}
		// Record the cold→hot pin improvement in the notes: the whole
		// point of the phase, and the number the acceptance bar reads.
		for _, rr := range rep.Read {
			if rr.HotPinNS.P50 > 0 {
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"read %s: pin p50 %dns cold (copy-on-pin) -> %dns hot (cached), %.0fx; hit rate %.3f; %s",
					rr.Name, rr.ColdPinNS.P50, rr.HotPinNS.P50,
					float64(rr.ColdPinNS.P50)/float64(rr.HotPinNS.P50),
					rr.CacheHitRate, rr.HotPinAlloc))
			}
		}
	}
	rep.GoVersion = runtime.Version()
	if err := rep.WriteJSON(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cases, %d sweeps; %d CPU, GOMAXPROCS %d)\n",
		*out, len(rep.Cases), len(rep.Sweeps), rep.NumCPU, rep.Gomaxprocs)
	for _, c := range rep.Cases {
		fmt.Printf("\n%s  %s  (q-hierarchical: %v)\n", c.Name, c.Query, c.QHierarchical)
		for _, s := range c.Strategies {
			fmt.Printf("  %-10s preprocess %8.2fms (bulk %8.2fms)  updates %8.0f/s (p99 %6dns)  count %d in %6dns  delay p99 %6dns over %d tuples\n",
				s.Strategy, float64(s.PreprocessNS)/1e6, float64(s.BulkLoadNS)/1e6, s.UpdatesPerSec, s.UpdateNS.P99,
				s.Count, s.CountNS, s.DelayNS.P99, s.EnumeratedTuples)
			fmt.Printf("             update %s  enumerate %s\n", s.UpdateAlloc, s.EnumerateAlloc)
			for _, b := range s.Batches {
				fmt.Printf("             batch %5d: %8.0f updates/s over %d batches (%d net)\n",
					b.BatchSize, b.UpdatesPerSec, b.Batches, b.NetApplied)
			}
			for _, p := range s.Parallel {
				mode := "sequential"
				if p.Sharded {
					mode = "sharded"
				}
				fmt.Printf("             workers %2d (%s): %8.0f updates/s  speedup %.2fx\n",
					p.Workers, mode, p.UpdatesPerSec, p.SpeedupVs1)
			}
		}
	}
	for _, sw := range rep.Sweeps {
		fmt.Printf("\nsweep %s  %s\n", sw.Name, sw.Query)
		for _, p := range sw.Points {
			fmt.Printf("  n=%-6d", p.N)
			for _, s := range p.Strategies {
				fmt.Printf("  %s p50 %6dns p99 %6dns", s.Strategy, s.UpdateNS.P50, s.UpdateNS.P99)
			}
			fmt.Println()
		}
	}
	for _, m := range rep.Multi {
		fmt.Printf("\nmulti %s  %d queries over one workspace, %d updates in batches of %d\n",
			m.Name, m.NumQueries, m.StreamSize, m.BatchSize)
		fmt.Printf("  store mutations: shared %d vs %d across %d solo sessions (%.1fx saved)\n",
			m.SharedStoreMutations, m.SoloStoreMutations, m.NumQueries,
			float64(m.SoloStoreMutations)/float64(max(m.SharedStoreMutations, 1)))
		fmt.Printf("  shared pipeline: %8.0f updates/s  batch p50 %8dns p99 %8dns  %s  (solo total %.2fms, shared %.2fms)\n",
			m.UpdatesPerSec, m.BatchNS.P50, m.BatchNS.P99, m.Alloc,
			float64(m.SoloTotalNS)/1e6, float64(m.SharedTotalNS)/1e6)
		for _, q := range m.Queries {
			ok := "identical to solo"
			if !q.MatchesSolo {
				ok = "DIVERGES FROM SOLO"
			}
			fmt.Printf("  %-10s [%s] maintain p50 %8dns p99 %8dns  solo-batch p50 %8dns  count %d  %s\n",
				q.Name, q.Strategy, q.MaintainNS.P50, q.MaintainNS.P99, q.SoloUpdateNS.P50, q.Count, ok)
		}
		for _, sc := range m.Scaling {
			fmt.Printf("  scaling workers %2d: %8.0f updates/s  speedup %.2fx\n",
				sc.Workers, sc.UpdatesPerSec, sc.SpeedupVs1)
		}
	}
	for _, sv := range rep.Server {
		fmt.Printf("\nserver %s  %d subscribers, %d readers, %d batches of %d\n",
			sv.Name, sv.Subscribers, sv.Readers, sv.Batches, sv.BatchSize)
		fmt.Printf("  commit p50 %8dns p99 %8dns  notify p50 %8dns p99 %8dns  reads %8.0f/s  dropped frames %d\n",
			sv.CommitNS.P50, sv.CommitNS.P99, sv.NotifyNS.P50, sv.NotifyNS.P99, sv.ReadsPerSec, sv.DroppedFrames)
	}
	for _, rr := range rep.Read {
		fmt.Printf("\nread %s  [%s] %d tuples\n", rr.Name, rr.Strategy, rr.Tuples)
		fmt.Printf("  pin p50 cold %8dns -> hot %6dns (%s)  reads quiet %9.0f/s busy %9.0f/s  commit p50 %8dns p99 %8dns  hit rate %.3f\n",
			rr.ColdPinNS.P50, rr.HotPinNS.P50, rr.HotPinAlloc,
			rr.QuietReadsPerSec, rr.BusyReadsPerSec, rr.CommitNS.P50, rr.CommitNS.P99, rr.CacheHitRate)
	}
	for _, lg := range rep.Large {
		fmt.Printf("\nlarge %s  %d queries over %d groups, %d initial tuples, %d updates in batches of %d (zipf s=%.2f, p-delete %.2f)\n",
			lg.Name, lg.NumQueries, lg.Groups, lg.InitSize, lg.StreamSize, lg.BatchSize, lg.ZipfS, lg.PDelete)
		for _, run := range lg.Runs {
			ok := "identical to workers=1"
			if !run.MatchesWorkers1 {
				ok = "DIVERGES FROM workers=1"
			}
			fmt.Printf("  workers %2d: %8.0f updates/s  speedup %.2fx  (%s)\n",
				run.Workers, run.UpdatesPerSec, run.SpeedupVs1, ok)
			for _, p := range run.Phases {
				fmt.Printf("    %-8s %10.2fms over %8d ops  p99 %10dns  %s\n",
					p.Name, float64(p.TotalNS)/1e6, p.Ops, p.NS.P99, p.Alloc)
			}
		}
	}
	return nil
}

// cmdBenchSpeedup implements the scaling summary:
//
//	dyncq bench -speedup report.json [-min-scaling 1.2] [-gate]
//
// It prints one line per parallel measurement and a notice for every
// sharded workers=2 measurement scaling below the threshold on a
// multi-core machine. Without -gate the notices are advisory (exit 0;
// ::notice annotations under GitHub Actions). With -gate any notice
// fails the command — the CI scaling gate, run against a report the
// runner itself recorded. On a single-CPU machine the summary suppresses
// notices entirely (parallel speedup is physically impossible there), so
// the gate only ever bites where scaling is actually expected.
func cmdBenchSpeedup(args []string) error {
	opt := bench.SpeedupOptions{MinAtTwo: 1.2}
	gate := false
	var files []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-min-scaling", "--min-scaling":
			i++
			if i >= len(args) {
				return fmt.Errorf("-min-scaling needs a value")
			}
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil || v <= 0 {
				return fmt.Errorf("-min-scaling: invalid value %q", args[i])
			}
			opt.MinAtTwo = v
		case "-gate", "--gate":
			gate = true
		case "-h", "--help":
			fmt.Fprintln(os.Stderr, "usage: dyncq bench -speedup report.json [-min-scaling 1.2] [-gate]")
			return nil
		default:
			if strings.HasPrefix(args[i], "-") {
				return fmt.Errorf("bench -speedup: unknown flag %q", args[i])
			}
			files = append(files, args[i])
		}
	}
	if len(files) != 1 {
		return fmt.Errorf("bench -speedup wants exactly one report path, got %d", len(files))
	}
	rep, err := bench.LoadReport(files[0])
	if err != nil {
		return err
	}
	lines, notices := bench.SpeedupSummary(rep, opt)
	for _, l := range lines {
		fmt.Println(l)
	}
	onActions := os.Getenv("GITHUB_ACTIONS") != ""
	for _, n := range notices {
		fmt.Println("notice:", n)
		if onActions && !gate {
			fmt.Printf("::notice title=bench scaling::%s\n", n)
		}
		if onActions && gate {
			fmt.Printf("::error title=bench scaling gate::%s\n", n)
		}
	}
	if len(notices) == 0 {
		fmt.Printf("scaling ok (threshold %.2fx at workers=2)\n", opt.MinAtTwo)
	}
	if gate && len(notices) > 0 {
		return fmt.Errorf("scaling gate: %d measurement(s) under %.2fx at workers=2", len(notices), opt.MinAtTwo)
	}
	return nil
}

// DefaultMultiSuite builds the multi-query workspace case: K = 4 mixed
// core/ivm/recompute queries over one shared {E/2, S/1, T/1} schema and
// one update stream — the workload behind the "shared store applied
// once per batch, results identical to independent sessions" claim.
func DefaultMultiSuite(seed int64, n, streamLen, batchSize, repeat int) ([]bench.MultiConfig, error) {
	rng := rand.New(rand.NewSource(seed + 4))
	schema := map[string]int{"E": 2, "S": 1, "T": 1}
	queries := []struct {
		name, text string
		force      dyncq.Strategy
	}{
		{"star", "Q(y) :- E(x,y), T(y)", dyncq.StrategyAuto},         // core
		{"hard", "Q(x,y) :- S(x), E(x,y), T(y)", dyncq.StrategyAuto}, // ivm
		{"src", "Q(x) :- E(x,y)", dyncq.StrategyAuto},                // core
		{"audit", "Q(y) :- E(x,y), T(y)", dyncq.StrategyRecompute},
	}
	var named []bench.NamedQuery
	for _, q := range queries {
		parsed, err := cq.Parse(q.text)
		if err != nil {
			return nil, err
		}
		named = append(named, bench.NamedQuery{Name: q.name, Query: parsed, Force: q.force})
	}
	initial := workload.RandomDatabase(rng, schema, n, 3*n).Updates()
	stream := workload.RandomStream(rng, schema, n, streamLen, 0.3)
	return []bench.MultiConfig{{
		Name:      "workspace-4q",
		Queries:   named,
		Initial:   initial,
		Stream:    stream,
		BatchSize: batchSize,
		Repeat:    repeat,
	}}, nil
}

// cmdBenchCompare implements the perf-regression gate:
//
//	dyncq bench -compare old.json new.json [-tolerance 0.30]
//	            [-p99-tolerance 0.90] [-floor-ns 5000] [-include-sweeps]
//
// Flags may appear before or after the two report paths. Exits non-zero
// (returns an error) when any latency percentile regressed: medians are
// held to -tolerance, p99 tails to -p99-tolerance (default 3× the median
// tolerance — tails jitter), and values below the floor are ignored as
// timer noise.
func cmdBenchCompare(args []string) error {
	opt := bench.DefaultCompareOptions()
	var files []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-tolerance", "--tolerance":
			i++
			if i >= len(args) {
				return fmt.Errorf("-tolerance needs a value")
			}
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil || v < 0 {
				return fmt.Errorf("-tolerance: invalid value %q", args[i])
			}
			opt.Tolerance = v
		case "-p99-tolerance", "--p99-tolerance":
			i++
			if i >= len(args) {
				return fmt.Errorf("-p99-tolerance needs a value")
			}
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil || v < 0 {
				return fmt.Errorf("-p99-tolerance: invalid value %q", args[i])
			}
			opt.P99Tolerance = v
		case "-include-sweeps", "--include-sweeps":
			opt.IncludeSweeps = true
		case "-floor-ns", "--floor-ns":
			i++
			if i >= len(args) {
				return fmt.Errorf("-floor-ns needs a value")
			}
			v, err := strconv.ParseInt(args[i], 10, 64)
			if err != nil || v < 0 {
				return fmt.Errorf("-floor-ns: invalid value %q", args[i])
			}
			opt.FloorNS = v
		case "-h", "--help":
			fmt.Fprintln(os.Stderr, "usage: dyncq bench -compare old.json new.json [-tolerance 0.30] [-p99-tolerance 0.90] [-floor-ns 5000] [-include-sweeps]")
			if len(args) == 1 {
				return nil
			}
			// A gate command must not share the success exit path with a
			// stray -h in a mangled invocation: no comparison ran.
			return fmt.Errorf("bench -compare: -h given, no comparison performed")
		default:
			if strings.HasPrefix(args[i], "-") {
				return fmt.Errorf("bench -compare: unknown flag %q", args[i])
			}
			files = append(files, args[i])
		}
	}
	if len(files) != 2 {
		return fmt.Errorf("bench -compare wants exactly two report paths, got %d", len(files))
	}
	oldRep, err := bench.LoadReport(files[0])
	if err != nil {
		return err
	}
	newRep, err := bench.LoadReport(files[1])
	if err != nil {
		return err
	}
	regs, notices := bench.CompareWithNotices(oldRep, newRep, opt)
	// Phases the baseline predates are skipped with a visible notice,
	// not an error: an old baseline keeps gating everything it can.
	for _, n := range notices {
		fmt.Fprintln(os.Stderr, "notice:", n)
	}
	if len(regs) == 0 {
		fmt.Printf("no regressions: %s vs %s (tolerance %.0f%%, floor %dns, %d phase(s) skipped)\n",
			files[0], files[1], opt.Tolerance*100, opt.FloorNS, len(notices))
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, "regression:", r)
	}
	return fmt.Errorf("%d latency regression(s) beyond %.0f%% tolerance", len(regs), opt.Tolerance*100)
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("size %d is not positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// DefaultSuite builds the standard benchmark cases:
//
//   - star: the paper's scaling workload for the q-hierarchical query
//     Q(y) :- E(x,y), T(y) (core vs the baselines);
//   - hard-sqet: ϕS-E-T = Q(x,y) :- S(x), E(x,y), T(y), the canonical
//     non-q-hierarchical query where Theorem 3.3's lower bound bites and
//     routing must fall back to IVM;
//   - random-qh: a seed-derived random q-hierarchical query under a mixed
//     insert/delete stream;
//   - deep-paths: a 5-variable q-hierarchical query with arity-3 atoms
//     and a self-join, whose long root paths make the per-update
//     bottom-up propagation expensive — the workload where bulk Load's
//     deferred weight pass pays off most.
//
// batchSizes configures the batch phase of every case (see
// bench.Config.BatchSizes).
func DefaultSuite(seed int64, n, streamLen, maxEnum int, batchSizes []int) ([]bench.Config, error) {
	rng := rand.New(rand.NewSource(seed))

	starQ, err := cq.Parse("Q(y) :- E(x,y), T(y)")
	if err != nil {
		return nil, err
	}
	starInit := workload.StarSchemaStream(rng, n, 3)
	starStream := workload.RandomStream(rng, starQ.Schema(), n, streamLen, 0.3)

	hardQ, err := cq.Parse("Q(x,y) :- S(x), E(x,y), T(y)")
	if err != nil {
		return nil, err
	}
	hardInit := workload.RandomDatabase(rng, hardQ.Schema(), n, n).Updates()
	hardStream := workload.RandomStream(rng, hardQ.Schema(), n, streamLen, 0.3)

	// Small domain so the multi-way joins of the random query actually
	// produce result tuples to enumerate.
	randQ := workload.RandomQHierarchical(rng, workload.DefaultQHOptions())
	randStream := workload.RandomStream(rng, randQ.Schema(), 8, streamLen, 0.4)

	deepQ, err := cq.Parse("Q(x,y,z,yp,zp) :- R(x,y,z), R(x,y,zp), E(x,y), E(x,yp), S(x,y,z)")
	if err != nil {
		return nil, err
	}
	deepDomain := n / 10
	if deepDomain < 8 {
		deepDomain = 8
	}
	deepInit := workload.RandomDatabase(rng, deepQ.Schema(), deepDomain, n).Updates()
	deepStream := workload.RandomStream(rng, deepQ.Schema(), deepDomain, streamLen, 0.35)

	return []bench.Config{
		{Name: "star", Query: starQ, Initial: starInit, Stream: starStream, MaxEnumerate: maxEnum, BatchSizes: batchSizes},
		{Name: "hard-sqet", Query: hardQ, Initial: hardInit, Stream: hardStream, MaxEnumerate: maxEnum, BatchSizes: batchSizes},
		{Name: "random-qh", Query: randQ, Initial: nil, Stream: randStream, MaxEnumerate: maxEnum, BatchSizes: batchSizes},
		{Name: "deep-paths", Query: deepQ, Initial: deepInit, Stream: deepStream, MaxEnumerate: maxEnum, BatchSizes: batchSizes},
	}, nil
}

// StarSweep builds the scaling sweep over database size n for the star
// workload: per-update latency of the core engine must stay flat as n
// grows (Theorem 3.2's O(1) updates) while the IVM baseline's residual
// joins grow, which the sweep records point by point.
func StarSweep(seed int64, sizes []int, streamLen, maxEnum int) (bench.SweepConfig, error) {
	starQ, err := cq.Parse("Q(y) :- E(x,y), T(y)")
	if err != nil {
		return bench.SweepConfig{}, err
	}
	return bench.SweepConfig{
		Name:  "star-scaling",
		Query: starQ,
		Sizes: sizes,
		Generate: func(n int) (initial, stream []dyndb.Update) {
			// Fresh, size-seeded RNG per point: deterministic in (seed, n).
			rng := rand.New(rand.NewSource(seed + int64(n)))
			initial = workload.StarSchemaStream(rng, n, 3)
			stream = workload.RandomStream(rng, starQ.Schema(), n, streamLen, 0.3)
			return initial, stream
		},
		MaxEnumerate: maxEnum,
	}, nil
}

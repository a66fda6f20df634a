// Command dyncq is the command-line front end of the repository: it
// loads a conjunctive query, classifies it, routes it to the best
// maintenance strategy (pkg/dyncq), applies update streams, and answers
// count/enumerate requests. It also serves queries over TCP (serve,
// client) and runs the seeded torture matrix (torture); the benchmark
// is the separate program in benchmark/.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"dyncq/internal/cq"
	"dyncq/internal/qtree"
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
	strategyName := fs.String("strategy", "auto", "maintenance strategy for every query: auto, core or ivm")
	batch := fs.Int("batch", 0, "apply streams in batches of this many updates (0 = one batch per stream)")
	stringsMode := fs.Bool("strings", false, "parse stream tuple entries as string constants through a dictionary instead of int64 literals")
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

	ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{})
	for _, nq := range named {
		h, err := ws.RegisterQuery(nq.name, nq.q, dyncq.Options{Force: strategy})
		if err != nil {
			return err
		}
		fmt.Printf("query %-8s %s  [%s]\n", h.Name()+":", h.Query(), h.Strategy())
	}
	// The dictionary stays empty without -strings: -stats then reads
	// zero and -enumerate prints every value as an int64.
	d := newDict()
	var encode func(string) dyncq.Value
	if *stringsMode {
		encode = d.Encode
	}
	schema := ws.Schema()
	if *dataFile != "" {
		if err := loadDatabaseFile(ws, schema, *dataFile, encode); err != nil {
			return err
		}
	}
	if *updFile != "" {
		if err := applyStreamFile(ws, schema, *updFile, *batch, encode); err != nil {
			return err
		}
	}
	fmt.Printf("database: %d tuples, %d store mutations\n", ws.Cardinality(), ws.StoreMutations())
	if *doStats {
		st := d.Stats()
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
// workspace through the bulk Load path (reset-then-load: each backend
// rebuilds once from the loaded store) instead of committing per-tuple
// updates. The single parse pass checks arities against the
// union query schema with line numbers and collects typo warnings. A
// non-nil encode switches the parser to string mode.
func loadDatabaseFile(ws *dyncq.Workspace, schema map[string]int, path string, encode func(string) dyncq.Value) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sr := dyncq.NewStreamReader(f)
	if encode != nil {
		sr.UseStrings(encode)
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
// through Workspace.Commit (one shared-store application fanned out to
// every registered query), arity mismatches against the union schema are
// reported with the offending line number, and relations outside every
// query earn a typo warning — spotted on the same pass, not a separate
// parse. A non-nil encode switches the parser to string mode.
func applyStreamFile(ws *dyncq.Workspace, schema map[string]int, path string, batchSize int, encode func(string) dyncq.Value) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sr := dyncq.NewStreamReader(f)
	if encode != nil {
		sr.UseStrings(encode)
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
// ([]dyncq.Value) all the way here, and only at this point are codes the
// dictionary assigned turned back into symbols. One builder per tuple,
// no intermediate string slices.
func formatTuple(t []dyncq.Value, d *dict) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		if name, ok := d.TryDecode(v); ok {
			b.WriteString(name)
			continue
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

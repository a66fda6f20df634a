package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"dyncq/internal/stream"
	"dyncq/pkg/dyncq"
)

// This file reads the update files of `dyncq run` (-data and -updates):
// one command per line in the grammar of internal/stream.Parse — `+E(1,2)`
// inserts, `-E(1,2)` deletes, the sign is optional — with blank lines and
// #-comments skipped. Tuple entries are int64 constants, or with -strings
// string constants the dictionary (dict.go) encodes. The library takes
// the parsed updates, not their text.

// maxUpdateLine is the longest line an update file may hold.
const maxUpdateLine = 16 << 20

// updateReader reads the update files of one run. It remembers every
// relation's arity — the query's, or else the one the relation's first
// line in any of the run's files gave it — so a later line of another
// arity is rejected naming its line, on the -data and the -updates path
// alike.
type updateReader struct {
	encode func(string) dyncq.Value // nil: entries are int64 literals
	query  map[string]int           // the union schema of the run's queries
	arity  map[string]relArity
	names  stream.Names
}

// relArity is a relation's arity and where it was fixed.
type relArity struct {
	n    int
	from string // "in the query", or "from line N of <file>"
}

// newUpdateReader returns a reader for a workspace whose queries have the
// union schema schema; a non-nil encode switches it to string mode.
func newUpdateReader(schema map[string]int, encode func(string) dyncq.Value) *updateReader {
	r := &updateReader{encode: encode, query: schema, arity: make(map[string]relArity, len(schema))}
	for rel, n := range schema {
		r.arity[rel] = relArity{n, "in the query"}
	}
	return r
}

// read reads the update file named name from in and hands each update, in
// file order, to apply with its 1-based line number; it returns how many
// it handed over. It stops at the first malformed line, arity clash or
// apply error, the error prefixed with name (and, but for apply's, the
// line). Once the whole file is read it warns about the relations no
// query names, which are likely typos.
func (r *updateReader) read(name string, in io.Reader, apply func(u dyncq.Update, line int) error) (int, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), maxUpdateLine)
	unknown := map[string]bool{}
	line, total := 0, 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		// Parsed in the scanner's buffer; the update keeps its own
		// exact-size tuple and an interned relation name.
		op, rel, tuple, err := stream.Parse(text, r.encode, make([]dyncq.Value, 0, bytes.Count(text, []byte{','})+1))
		if err != nil {
			return total, fmt.Errorf("%s: line %d: %w", name, line, err)
		}
		u := dyncq.Update{Op: op, Rel: r.names.Intern(rel), Tuple: tuple}
		if a, ok := r.arity[u.Rel]; !ok {
			r.arity[u.Rel] = relArity{len(u.Tuple), fmt.Sprintf("from line %d of %s", line, name)}
		} else if a.n != len(u.Tuple) {
			return total, fmt.Errorf("%s: line %d: %s has arity %d %s, got tuple of length %d",
				name, line, u.Rel, a.n, a.from, len(u.Tuple))
		}
		if _, ok := r.query[u.Rel]; !ok {
			unknown[u.Rel] = true
		}
		if err := apply(u, line); err != nil {
			return total, fmt.Errorf("%s: %w", name, err)
		}
		total++
	}
	if err := sc.Err(); err != nil {
		// I/O and scanner errors (a line over the cap) strike after the
		// last line read: point there, like every parse error.
		return total, fmt.Errorf("%s: after line %d: %w", name, line, err)
	}
	if len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "warning: %s: relations not in the query (likely a typo): %s\n",
			name, strings.Join(slices.Sorted(maps.Keys(unknown)), ", "))
	}
	return total, nil
}

// loadDatabaseFile reads an initial-database file and feeds it to the
// workspace through the bulk Load path (reset-then-load: each backend
// rebuilds once from the loaded store) instead of committing per-tuple
// updates.
func loadDatabaseFile(ws *dyncq.Workspace, r *updateReader, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	db := dyncq.NewDatabase()
	total, err := r.read(path, f, func(u dyncq.Update, line int) error {
		if _, err := db.Apply(u); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := ws.Load(db); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("loaded:   %d commands from %s (bulk load: %d tuples)\n", total, path, db.Cardinality())
	return nil
}

// applyStreamFile streams one update file into the workspace, committing
// it through Workspace.Commit (one shared-store application fanned out to
// every registered query) in batches of batchSize updates, or in one
// batch if batchSize <= 0.
func applyStreamFile(ws *dyncq.Workspace, r *updateReader, path string, batchSize int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	applied := 0
	var pending []dyncq.Update
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		n, _, err := ws.Commit(pending)
		applied += n
		pending = pending[:0]
		return err
	}
	total, err := r.read(path, f, func(u dyncq.Update, _ int) error {
		pending = append(pending, u)
		if batchSize > 0 && len(pending) >= batchSize {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if batchSize > 0 {
		fmt.Printf("applied:  %d updates from %s in batches of %d (%d net changes)\n",
			total, path, batchSize, applied)
	} else {
		fmt.Printf("applied:  %d updates from %s (%d net changes)\n", total, path, applied)
	}
	return nil
}

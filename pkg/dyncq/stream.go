package dyncq

import (
	"strings"

	"dyncq/internal/stream"
)

// This file converts single updates to and from the textual line
// format, one command per line:
//
//	+E(1,2)     insert E(1,2)
//	-E(1,2)     delete E(1,2)
//	E(1,2)      insert (the sign is optional)
//
// Tuple entries are int64 constants. The parser is strict: exactly one
// optional sign, a valid relation identifier, one parenthesised tuple,
// and nothing after the closing parenthesis. Malformed input is rejected
// with an error naming the offence (doubled sign, trailing garbage,
// non-integer entry, …) rather than whatever the nearest scanner rule
// happened to produce. The grammar has one implementation,
// internal/stream.Parse; the library itself takes updates, not text
// (Workspace.Commit), and the CLI reads update files with that parser.

// ParseUpdate parses one update command line.
//
// Deprecated: the library takes updates, not text. ParseUpdate stays only
// because the benchmark's ladder (benchmark/ladder.go) is its one
// non-test caller; it goes with the ROADMAP item "Benchmark refresh".
func ParseUpdate(line string) (Update, error) {
	op, rel, tuple, err := stream.Parse(line, nil, make([]Value, 0, strings.Count(line, ",")+1))
	if err != nil {
		return Update{}, err
	}
	return Update{Op: op, Rel: rel, Tuple: tuple}, nil
}

// FormatUpdate renders an update in the line format, the inverse of
// ParseUpdate: the line internal/stream's AppendTupleLine writes, without
// its newline.
//
// Deprecated: the library takes updates, not text. FormatUpdate stays
// only because the benchmark's ladder (benchmark/ladder.go) is its one
// non-test caller; it goes with the ROADMAP item "Benchmark refresh".
func FormatUpdate(u Update) string {
	line := stream.AppendTupleLine(make([]byte, 0, stream.TupleLineLen(u.Rel, u.Tuple)), u.Op, u.Rel, u.Tuple)
	return string(line[:len(line)-1])
}

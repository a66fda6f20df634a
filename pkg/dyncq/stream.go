package dyncq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"dyncq/internal/stream"
)

// This file is the library's side of the textual update-stream format the
// CLI reads. One command per line:
//
//	+E(1,2)     insert E(1,2)
//	-E(1,2)     delete E(1,2)
//	E(1,2)      insert (the sign is optional for database files)
//	# comment   (blank lines and #-comments are skipped)
//
// Tuple entries are int64 constants, or string constants a StreamReader
// encodes through the function UseStrings hands it (the CLI's -strings
// mode, whose dictionary lives in cmd/dyncq). The parser is strict:
// exactly one optional sign, a valid relation identifier, one
// parenthesised tuple, and nothing after the closing parenthesis.
// Malformed input is rejected with an error naming the offence (doubled
// sign, trailing garbage, non-integer entry, …) rather than whatever the
// nearest scanner rule happened to produce.
//
// The grammar has one implementation, internal/stream.Parse, which reads
// a line where it lies — a string, or the bytes a bufio.Scanner lent —
// and appends the tuple to a slice the caller supplies. ParseUpdate and
// StreamReader hand it a tuple of exactly the line's arity (a well-formed
// line holds one comma fewer than it has entries), and StreamReader
// parses from the scanner's buffer without copying the line out; the
// serving front door parses a batch's lines into one arena its session
// owns (stream.Arena).

// ParseUpdate parses one update command line.
func ParseUpdate(line string) (Update, error) {
	op, rel, tuple, err := stream.Parse(line, nil, make([]Value, 0, strings.Count(line, ",")+1))
	if err != nil {
		return Update{}, err
	}
	return Update{Op: op, Rel: rel, Tuple: tuple}, nil
}

// StreamReader reads an update stream command by command, tracking line
// numbers so errors — both parse errors here and apply-time errors in
// ApplyStreamReader — can name the offending line. Blank lines and
// #-comments are skipped.
type StreamReader struct {
	sc     *bufio.Scanner
	line   int
	encode func(string) Value
	names  stream.Names
}

// NewStreamReader returns a reader over r. Lines up to 16MiB are
// accepted.
func NewStreamReader(r io.Reader) *StreamReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &StreamReader{sc: sc}
}

// UseStrings switches the reader to string mode: tuple entries are
// parsed as string constants — anything without a comma or parenthesis,
// surrounding white space trimmed, so "42" is a string here — and turned
// into values by encode instead of read as int64 literals. encode is
// called once per entry, on the reader's goroutine. Call it before the
// first Next.
func (r *StreamReader) UseStrings(encode func(string) Value) { r.encode = encode }

// Next returns the next update and its 1-based line number. At the end
// of the stream it returns io.EOF; parse and read errors carry the line
// number.
func (r *StreamReader) Next() (Update, int, error) {
	for r.sc.Scan() {
		r.line++
		// The line is parsed in the scanner's buffer; the update keeps
		// its own exact-size tuple and an interned relation name.
		line := bytes.TrimSpace(r.sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		op, rel, tuple, err := stream.Parse(line, r.encode, make([]Value, 0, bytes.Count(line, []byte{','})+1))
		if err != nil {
			return Update{}, r.line, fmt.Errorf("line %d: %w", r.line, err)
		}
		return Update{Op: op, Rel: r.names.Intern(rel), Tuple: tuple}, r.line, nil
	}
	if err := r.sc.Err(); err != nil {
		// I/O and scanner errors (e.g. a line over the 16MiB cap) strike
		// after the last successfully read line — point there so the
		// offending region is locatable, like every parse error.
		return Update{}, r.line, fmt.Errorf("after line %d: %w", r.line, err)
	}
	return Update{}, r.line, io.EOF
}

// ApplyStreamReader reads the update stream from sr and applies it to the
// workspace in batches of batchSize commands (batchSize <= 0 applies one
// batch at the end) — the one stream entry point; configure the reader
// first (UseStrings for the CLI's -strings mode). Every command's arity is
// checked against the workspace's union schema at apply time, so a
// mismatch is reported with the offending line number — something the
// backends' own arity errors cannot do once the text positions are gone.
// observe (if non-nil) is called for every parsed command with its line
// number, before the command is batched — the hook the CLI uses to count
// commands and warn about relations outside the query on the same single
// parse pass. Returns the number of net commands that changed the
// database, stopping at the first error.
func ApplyStreamReader(ws *Workspace, sr *StreamReader, batchSize int, observe func(u Update, line int)) (int, error) {
	schema := ws.Schema()
	applied := 0
	var pending []Update
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		n, _, err := ws.Commit(pending)
		applied += n
		pending = pending[:0]
		return err
	}
	for {
		u, line, err := sr.Next()
		if err == io.EOF {
			return applied, flush()
		}
		if err != nil {
			return applied, err
		}
		if want, ok := schema[u.Rel]; ok && want != len(u.Tuple) {
			return applied, fmt.Errorf("line %d: %s has arity %d in the query, got tuple of length %d",
				line, u.Rel, want, len(u.Tuple))
		}
		if observe != nil {
			observe(u, line)
		}
		pending = append(pending, u)
		if batchSize > 0 && len(pending) >= batchSize {
			if err := flush(); err != nil {
				return applied, err
			}
		}
	}
}

// FormatUpdate renders an update in the stream syntax, the inverse of
// ParseUpdate: the line internal/stream's AppendTupleLine writes, without
// its newline.
func FormatUpdate(u Update) string {
	line := stream.AppendTupleLine(make([]byte, 0, stream.TupleLineLen(u.Rel, u.Tuple)), u.Op, u.Rel, u.Tuple)
	return string(line[:len(line)-1])
}

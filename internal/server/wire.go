// Package server is the dyncq serving front door: a long-lived
// multi-client server process owning one Workspace. Clients speak a
// line-oriented wire protocol over any net.Conn (TCP in production,
// net.Pipe in deterministic tests), reusing the update-stream text
// format for tuples: `+E(1,2)` inserts, `-E(1,2)` deletes, and result
// tuples are rendered the same way with the query name as the relation.
//
// # Wire protocol
//
// Requests are single lines. Responses are either a single line
// (`ok …` / `err <message>` / `bye`) or a multi-line frame terminated
// by a lone `.`:
//
//	register <name> <query text>      -> ok registered <name> <strategy> <version>
//	unregister <name>                 -> ok unregistered <name>
//	apply <update>                    -> ok applied <0|1> <version>
//	begin                             -> ok begin          (then bare ±R(t) lines)
//	commit                            -> ok committed <n> <version>
//	abort                             -> ok aborted
//	count <name>                      -> ok count <name> <n> <version>
//	answer <name>                     -> ok answer <name> <true|false> <version>
//	enumerate <name>                  -> snapshot <name> <n> <version> <arity>
//	                                     +<name>(v,…)  ×n
//	                                     .
//	subscribe <name>                  -> ok subscribed <name> <version>
//	unsubscribe <name>                -> ok unsubscribed <name>
//	queries                           -> ok queries <csv>
//	version                           -> ok version <v>
//	ping                              -> ok pong
//	quit                              -> bye
//
// The version in `ok applied` and `ok committed` is the one that commit
// produced (or left in place, when it changed nothing) — the key a
// writer joins its commit to the delta frame of the same version on —
// whatever other sessions have committed by the time the reply is
// written.
//
// A subscription asynchronously pushes one delta frame per committed
// version (even when that query's result did not change — subscribers
// track versions in lockstep):
//
//	delta <name> <version> <nAdded> <nRemoved>
//	+<name>(v,…)  ×nAdded
//	-<name>(v,…)  ×nRemoved
//	.
//
// Added and removed tuples are sorted lexicographically and each frame
// is encoded exactly once, so every subscriber of a query receives
// byte-identical delta streams. `enumerate` frames follow the same
// encode-once discipline one level down: a snapshot's rows live in
// copy-on-write leaves, each leaf's tuple lines are encoded once and kept
// with the leaf, and a frame is the header line, the leaves' blocks and
// the terminator, sent by reference in one vectored write. A commit
// rebuilds only the leaves its delta touches, and a rebuilt leaf's block
// is spliced from the blocks of the leaves it was merged from, so an
// `enumerate` at a new version formats O(|delta|) rows — the tuples added
// since the last one — not the result, and every client asking — at that
// version or at any other that shares the leaf — is sent the same bytes.
// The tuples are in lexicographic order too, whatever strategy maintains
// the query — the frame is a function of the result set, byte-identical
// across strategies and fan-out widths — so a client keeping a mirror
// applies each later delta frame to the snapshot by one sorted merge. A
// subscriber that cannot keep up (bounded per-connection outbox) has
// frames dropped; on recovery it receives a single
//
//	resync <name> <version> <dropped>
//
// line instead, after which it must re-enumerate and skip deltas with
// version <= the snapshot's version. The same subscribe → enumerate →
// skip-stale-deltas pattern is how a fresh subscriber syncs: the
// version in `ok subscribed` is a pre-capture lower bound, not an
// exact stream start.
package server

import (
	"fmt"
	"strconv"
	"strings"

	"dyncq/pkg/dyncq"
)

// Frame terminator for multi-line frames.
const frameEnd = ".\n"

// Blocks every session sends by reference and nothing ever writes to.
var (
	frameEndBlock = []byte(frameEnd)
	okBeginLine   = []byte("ok begin\n")
)

// decimalLen returns the number of bytes strconv.AppendInt renders v in.
//
//dyncq:hot
func decimalLen(v dyncq.Value) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u // the magnitude of math.MinInt64 is its own bit pattern
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// tupleLineLen returns the number of bytes appendTupleLine renders tuple
// in: the encoders size their buffers from the values, so a block that is
// kept — a leaf's for as long as the leaf lives, a delta's while it sits
// in outboxes — holds no slack.
//
//dyncq:hot
func tupleLineLen(name string, tuple []dyncq.Value) int {
	n := len(name) + 4 + max(len(tuple)-1, 0) // sign, parentheses, newline; commas
	for _, v := range tuple {
		n += decimalLen(v)
	}
	return n
}

// appendTupleLine appends `<sign><name>(v1,…,vk)\n` to buf and returns
// the extended slice. The caller provides the backing array;
// appendTupleLine only ever appends.
//
//dyncq:hot
func appendTupleLine(buf []byte, sign byte, name string, tuple []dyncq.Value) []byte {
	b := buf[:]
	b = append(b, sign)
	b = append(b, name...)
	b = append(b, '(')
	for i, v := range tuple {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, ')', '\n')
	return b
}

// encodeDelta renders one DeltaEvent as a complete wire frame. It is
// called once per event; the broker hands the same slice to every
// subscriber, which is what makes cross-connection delta streams
// byte-identical.
//
//dyncq:hot
func encodeDelta(ev dyncq.DeltaEvent) []byte {
	size := len("delta ") + len(ev.Query) + 3*(1+20) + len(frameEnd) // three numbers of at most 20 digits
	for _, t := range ev.Added {
		size += tupleLineLen(ev.Query, t)
	}
	for _, t := range ev.Removed {
		size += tupleLineLen(ev.Query, t)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, "delta "...)
	buf = append(buf, ev.Query...)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, ev.Version, 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(len(ev.Added)), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(len(ev.Removed)), 10)
	buf = append(buf, '\n')
	for _, t := range ev.Added {
		buf = appendTupleLine(buf, '+', ev.Query, t)
	}
	for _, t := range ev.Removed {
		buf = appendTupleLine(buf, '-', ev.Query, t)
	}
	buf = append(buf, frameEnd...)
	return buf
}

// encodeResync renders the per-subscriber lag notice. Only built on
// the degraded path (a subscriber recovering from overflow).
//
//dyncq:hot
func encodeResync(name string, version, dropped uint64) []byte {
	buf := make([]byte, 0, len(name)+56)
	buf = append(buf, "resync "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, version, 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, dropped, 10)
	buf = append(buf, '\n')
	return buf
}

// encodeSnapshotHeader renders the part of an `enumerate` frame that
// belongs to one version: the header line — and, for a Boolean query,
// which has no leaves, the empty tuple's line when the answer is yes.
//
//dyncq:hot
func encodeSnapshotHeader(s *dyncq.QuerySnapshot) []byte {
	name := s.Name()
	size := len("snapshot ") + len(name) + 3*(1+20) // three numbers of at most 20 digits
	if s.Arity() == 0 {
		size += s.Len() * tupleLineLen(name, nil)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, "snapshot "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(s.Len()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, s.Version(), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(s.Arity()), 10)
	buf = append(buf, '\n')
	if s.Arity() == 0 {
		for i := 0; i < s.Len(); i++ {
			buf = appendTupleLine(buf, '+', name, nil)
		}
	}
	return buf
}

// encodeLeaf renders row-major rows of a query's result — a snapshot
// leaf's, or the rows of a rebuilt leaf that no earlier block holds — as
// the tuple lines of an `enumerate` frame, one '\n'-terminated line per
// row as dyncq.QuerySnapshot.Blocks asks, in a block of exactly their
// size. Runs without any workspace lock held, at most once per row of a
// leaf (modulo benign racing misses), so every client whose frame covers
// the leaf receives the same bytes.
//
//dyncq:hot
func encodeLeaf(name string, arity int, rows []dyncq.Value) []byte {
	size := 0
	for off := 0; off < len(rows); off += arity {
		size += tupleLineLen(name, rows[off:off+arity])
	}
	buf := make([]byte, 0, size)
	for off := 0; off < len(rows); off += arity {
		buf = appendTupleLine(buf, '+', name, rows[off:off+arity])
	}
	return buf
}

// encodeReply renders `ok <verb> [<name> ]<n> <version>\n`: the replies
// a closed-loop writer or poller waits on (committed, applied, count), in
// one allocation.
//
//dyncq:hot
func encodeReply(verb, name string, n, version uint64) []byte {
	buf := make([]byte, 0, len("ok ")+len(verb)+1+len(name)+1+2*(20+1))
	buf = append(buf, "ok "...)
	buf = append(buf, verb...)
	buf = append(buf, ' ')
	if name != "" {
		buf = append(buf, name...)
		buf = append(buf, ' ')
	}
	buf = strconv.AppendUint(buf, n, 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, version, 10)
	buf = append(buf, '\n')
	return buf
}

// encodeAnswer renders `ok answer <name> <true|false> <version>\n`.
//
//dyncq:hot
func encodeAnswer(name string, yes bool, version uint64) []byte {
	buf := make([]byte, 0, len("ok answer ")+len(name)+1+len("false ")+20+1)
	buf = append(buf, "ok answer "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = strconv.AppendBool(buf, yes)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, version, 10)
	buf = append(buf, '\n')
	return buf
}

// parseTupleLine decodes one `<sign><name>(v1,…,vk)` line as emitted by
// appendTupleLine (client side), appending the values to vals and
// returning it extended: the tuple is the appended tail, so a caller
// decoding a frame keeps one backing array for all its tuples. The
// integers are parsed where they stand — nothing is split or copied.
func parseTupleLine(line string, vals []dyncq.Value) (sign byte, name string, out []dyncq.Value, err error) {
	if len(line) < 4 || (line[0] != '+' && line[0] != '-') {
		return 0, "", vals, fmt.Errorf("malformed tuple line %q", line)
	}
	open := strings.IndexByte(line, '(')
	if open < 1 || line[len(line)-1] != ')' {
		return 0, "", vals, fmt.Errorf("malformed tuple line %q", line)
	}
	out = vals
	for at, end := open+1, len(line)-1; at < end; at++ { // at: the first byte of a value
		neg := line[at] == '-'
		if neg {
			at++
		}
		// The magnitude, with room for the one more that math.MinInt64 has.
		var u uint64
		first := at
		for ; at < end && line[at] != ','; at++ {
			d := line[at] - '0'
			if d > 9 || u > (1<<63)/10 {
				return 0, "", vals, fmt.Errorf("malformed value in tuple line %q", line)
			}
			u = u*10 + uint64(d)
		}
		limit := uint64(1<<63 - 1)
		if neg {
			limit++
		}
		if at == first || u > limit || at == end-1 { // no digits; out of range; a comma with nothing after it
			return 0, "", vals, fmt.Errorf("malformed value in tuple line %q", line)
		}
		if neg {
			u = -u
		}
		out = append(out, dyncq.Value(u))
	}
	return line[0], line[1:open], out, nil
}

// tupleArity returns the number of values in a well-formed tuple line, to
// size a frame's backing array by before its lines are parsed.
func tupleArity(line string) int {
	if strings.HasSuffix(line, "()") {
		return 0
	}
	return strings.Count(line, ",") + 1
}

// sanitizeErr collapses an error message onto one line so it cannot
// break the line-oriented framing.
func sanitizeErr(err error) string {
	return strings.ReplaceAll(strings.ReplaceAll(err.Error(), "\r", " "), "\n", " ")
}

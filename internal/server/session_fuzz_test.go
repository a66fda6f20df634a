package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/pkg/dyncq"
)

// The request kinds of a FuzzWireSession program: each byte of the input
// picks one (modulo wireKinds), and the bytes after it its arguments.
const (
	wireRegister   byte = iota // one byte: name and query
	wireUnregister             // one byte: name
	wireApply                  // an update: a byte for sign, relation and arity, then a byte per value
	wireBegin
	wireLine // a bare update line, in a batch or not: wireApply's bytes
	wireCommit
	wireAbort
	wireCount     // one byte: name
	wireAnswer    // one byte: name
	wireEnumerate // one byte: name
	wireVersion
	wireQueries
	wirePing
	wireJunk     // a length byte and that many raw bytes
	wireVerbJunk // a verb byte, then wireJunk's bytes after that verb
	wireKinds
)

// wireMaxLine is the sessions' Options.MaxLine: junk reaches past it.
const wireMaxLine = 64

var (
	wireNames = []string{"a", "b", "c", "d"}
	wireTexts = []string{
		"Q(y) :- E(x,y), T(y)",         // core
		"Q(x,y) :- S(x), E(x,y), T(y)", // ivm
		"Q() :- E(x,y), T(y)",          // Boolean
		"Q(x) :- E(x,y,z)",             // E at arity 3: clashes with the rest
		"Q(x,y) :- E(x,y), E(y,x)",     // self-join
	}
	wireRels   = []string{"E", "S", "T", "X"} // X is in no query
	wireArity  = []int{2, 1, 1, 2}
	wireVerbs  = []string{"apply ", "register a ", "count ", "enumerate ", "begin ", "unsubscribe ", "unregister "}
	wireSeeded = [][]byte{
		// Three queries, updates one at a time and in a batch, every read.
		{wireRegister, 0, wireRegister, 4 + 1, wireRegister, 8 + 2,
			wireApply, 0, 1, 2, wireApply, 4, 2, wireApply, 2, 1, wireCount, 0, wireAnswer, 2, wireEnumerate, 1,
			wireBegin, wireLine, 0, 2, 2, wireLine, 0, 3, 2, wireLine, 3, 1, wireLine, 4, 3, wireLine, 2, 2, wireCommit,
			wireCount, 0, wireEnumerate, 0, wireEnumerate, 1, wireVersion, wireQueries,
			wireUnregister, 1, wireRegister, 12 + 1, wireCount, 1, wirePing},
		// Rejections: an arity clash at registration, a wrong-arity apply,
		// a poisoned batch, commit and abort outside a batch, an unknown
		// query, an update line outside a batch; an aborted batch, then a
		// batch that must not commit its lines.
		{wireRegister, 0, wireRegister, 12 + 1, wireApply, 0x80 | 3<<3, 1, 2, 3, wireApply, 6, 1, 1,
			wireBegin, wireLine, 0, 1, 1, wireJunk, 3, 'x', 'y', 'z', wireCommit, wireCount, 0,
			wireCommit, wireAbort, wireCount, 3, wireEnumerate, 3, wireLine, 0, 1, 1, wireUnregister, 3,
			wireBegin, wireLine, 0, 4, 4, wireAbort, wireBegin, wireLine, 4, 4, wireCommit, wireCount, 0},
		// Junk: bare, after a verb, inside a batch, a lone CR, and a line
		// longer than MaxLine, which ends the session.
		{wireRegister, 4, wireJunk, 5, 'h', 'e', 'l', 'l', 'o', wireVerbJunk, 0, 4, '+', 'E', '(', '1',
			wireVerbJunk, 1, 3, 'Q', '(', ')', wireVerbJunk, 2, 1, 'a', wireJunk, 1, '\r',
			wireBegin, wireJunk, 6, 'c', 'o', 'm', 'm', 'i', 'x', wireCommit,
			wireJunk, 70, 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y',
			'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y',
			'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y',
			'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', 'y', wirePing},
		// A batch left open: the harness aborts it before the closing ping.
		{wireRegister, 2, wireApply, 0, 1, 1, wireBegin, wireLine, 4, 1, wireLine, 1, 1, 1},
	}
)

// wireProgram decodes a fuzz input into request lines (without their
// newlines). Every input decodes to a program of at most 128 lines.
func wireProgram(data []byte) []string {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	update := func() string {
		b := next()
		sign := "+"
		if b&1 != 0 {
			sign = "-"
		}
		rel := int(b>>1) % len(wireRels)
		arity := wireArity[rel]
		if b&0x80 != 0 {
			arity = int(b>>3) % 4
		}
		vals := make([]string, arity)
		for i := range vals {
			vals[i] = strconv.Itoa(int(next() % 5))
		}
		return sign + wireRels[rel] + "(" + strings.Join(vals, ",") + ")"
	}
	junk := func() string {
		n := min(int(next()%80), len(data))
		line := strings.ReplaceAll(string(data[:n]), "\n", " ")
		data = data[n:]
		return line
	}
	name := func() string { return wireNames[next()%byte(len(wireNames))] }
	var lines []string
	for len(data) > 0 && len(lines) < 128 {
		switch next() % wireKinds {
		case wireRegister:
			b := next()
			lines = append(lines, "register "+wireNames[b%4]+" "+wireTexts[int(b/4)%len(wireTexts)])
		case wireUnregister:
			lines = append(lines, "unregister "+name())
		case wireApply:
			lines = append(lines, "apply "+update())
		case wireBegin:
			lines = append(lines, "begin")
		case wireLine:
			lines = append(lines, update())
		case wireCommit:
			lines = append(lines, "commit")
		case wireAbort:
			lines = append(lines, "abort")
		case wireCount:
			lines = append(lines, "count "+name())
		case wireAnswer:
			lines = append(lines, "answer "+name())
		case wireEnumerate:
			lines = append(lines, "enumerate "+name())
		case wireVersion:
			lines = append(lines, "version")
		case wireQueries:
			lines = append(lines, "queries")
		case wirePing:
			lines = append(lines, "ping")
		case wireJunk:
			lines = append(lines, junk())
		case wireVerbJunk:
			verb := wireVerbs[next()%byte(len(wireVerbs))]
			lines = append(lines, verb+junk())
		}
	}
	return lines
}

// wireRequest is one request line of a session and what the session must
// answer it with: reply is false for a line that gets none (an empty line,
// a line inside a batch), verb names the reply's kind, batch holds the
// lines a commit commits.
type wireRequest struct {
	line  string
	reply bool
	verb  string
	batch []string
}

// wirePlan walks the lines through the session's dispatch rules and
// returns the requests to send: a line the session would end on (quit)
// or answer asynchronously (subscribe) is replaced by a ping, an open
// batch is aborted at the end, and a closing ping follows — unless a line
// longer than MaxLine ends the session first, which is then the last
// request.
func wirePlan(lines []string) []wireRequest {
	var reqs []wireRequest
	inBatch := false
	var batch []string
	add := func(line string) bool {
		if len(line)+1 > wireMaxLine {
			reqs = append(reqs, wireRequest{line: line, reply: true, verb: "too long"})
			return false
		}
		trimmed := strings.TrimRight(line, "\r")
		if trimmed == "" {
			reqs = append(reqs, wireRequest{line: line})
			return true
		}
		if inBatch {
			switch trimmed {
			case "quit":
				line, trimmed = "ping", "ping"
			case "commit":
				inBatch = false
				reqs = append(reqs, wireRequest{line: line, reply: true, verb: "committed", batch: batch})
				batch = nil
				return true
			case "abort":
				inBatch = false
				batch = nil
				reqs = append(reqs, wireRequest{line: line, reply: true, verb: "aborted"})
				return true
			}
			batch = append(batch, trimmed)
			reqs = append(reqs, wireRequest{line: line})
			return true
		}
		cmd, _, _ := strings.Cut(trimmed, " ")
		switch cmd {
		case "quit", "subscribe":
			line, cmd = "ping", "ping"
		case "begin":
			inBatch = true
		}
		reqs = append(reqs, wireRequest{line: line, reply: true, verb: cmd})
		return true
	}
	for _, line := range lines {
		if !add(line) {
			return reqs
		}
	}
	if inBatch {
		add("abort")
	}
	add("ping")
	return reqs
}

// wireMirror is the oracle a FuzzWireSession run checks replies against:
// a plain database holding what the session committed, the queries it
// registered, and the version its commits made.
type wireMirror struct {
	db      *dyndb.Database
	queries map[string]*cq.Query
	version uint64
}

// count is |q(D)| of the registered query name over the mirror.
func (m *wireMirror) count(name string) (uint64, bool) {
	q, ok := m.queries[name]
	if !ok {
		return 0, false
	}
	return uint64(eval.Evaluate(q, m.db).Len()), true
}

// commit mirrors a commit of the session's update lines, returning its
// net size: the number of distinct tuples whose presence it changed.
func (m *wireMirror) commit(lines []string) (int, error) {
	type key struct{ rel, tuple string }
	seen, was := make(map[key]bool), make(map[key]bool)
	updates := make([]dyndb.Update, len(lines))
	for i, line := range lines {
		u, err := dyncq.ParseUpdate(line)
		if err != nil {
			return 0, fmt.Errorf("the session committed %q, which ParseUpdate rejects: %v", line, err)
		}
		updates[i] = u
		if k := (key{u.Rel, fmt.Sprint(u.Tuple)}); !seen[k] {
			seen[k] = true
			was[k] = m.db.Has(u.Rel, u.Tuple...)
		}
	}
	for _, u := range updates {
		if _, err := m.db.Apply(u); err != nil {
			return 0, fmt.Errorf("the session committed %s, which a plain database rejects: %v", u, err)
		}
	}
	net := 0
	for _, u := range updates {
		k := key{u.Rel, fmt.Sprint(u.Tuple)}
		if seen[k] {
			if was[k] != m.db.Has(u.Rel, u.Tuple...) {
				net++
			}
			delete(seen, k)
		}
	}
	if net > 0 {
		m.version++
	}
	return net, nil
}

// check compares one reply (a line, or an enumerate frame's header and
// tuple lines) with the request it answers and updates the mirror.
func (m *wireMirror) check(req wireRequest, reply []string) error {
	head := strings.TrimSuffix(reply[0], "\n")
	f := strings.Split(head, " ")
	rest := ""
	if _, r, ok := strings.Cut(strings.TrimRight(req.line, "\r"), " "); ok {
		rest = r
	}
	version := func(s string) error {
		if v, err := strconv.ParseUint(s, 10, 64); err != nil || v != m.version {
			return fmt.Errorf("names version %q, want %d", s, m.version)
		}
		return nil
	}
	if req.verb == "too long" {
		if head != fmt.Sprintf("err line exceeds %d bytes", wireMaxLine) {
			return fmt.Errorf("not the line-length error")
		}
		return nil
	}
	if f[0] == "err" {
		switch req.verb {
		case "begin", "aborted", "version", "queries", "ping":
			return fmt.Errorf("an error")
		}
		return nil
	}
	switch req.verb {
	case "register":
		name, text, _ := strings.Cut(rest, " ")
		if len(f) != 5 || f[1] != "registered" || f[2] != name {
			return fmt.Errorf("malformed")
		}
		q, err := cq.Parse(text)
		if err != nil {
			return fmt.Errorf("registered a query cq.Parse rejects: %v", err)
		}
		m.queries[name] = q
		return version(f[4])
	case "unregister":
		name := strings.TrimSpace(rest)
		if _, ok := m.queries[name]; !ok || head != "ok unregistered "+name {
			return fmt.Errorf("unregistered %q, which the mirror does not hold", name)
		}
		delete(m.queries, name)
	case "apply", "committed":
		if len(f) != 4 || f[1] != map[string]string{"apply": "applied", "committed": "committed"}[req.verb] {
			return fmt.Errorf("malformed")
		}
		lines := req.batch
		if req.verb == "apply" {
			lines = []string{strings.TrimSpace(rest)}
		}
		net, err := m.commit(lines)
		if err != nil {
			return err
		}
		if f[2] != strconv.Itoa(net) {
			return fmt.Errorf("the mirror nets %d", net)
		}
		return version(f[3])
	case "begin":
		if head != "ok begin" {
			return fmt.Errorf("malformed")
		}
	case "aborted":
		if head != "ok aborted" {
			return fmt.Errorf("malformed")
		}
	case "count", "answer":
		name := strings.TrimSpace(rest)
		want, ok := m.count(name)
		if !ok || len(f) != 5 || f[1] != req.verb || f[2] != name {
			return fmt.Errorf("malformed, or for a query the mirror does not hold")
		}
		got := strconv.FormatUint(want, 10)
		if req.verb == "answer" {
			got = strconv.FormatBool(want > 0)
		}
		if f[3] != got {
			return fmt.Errorf("the mirror says %s", got)
		}
		return version(f[4])
	case "enumerate":
		name := strings.TrimSpace(rest)
		want, ok := m.count(name)
		if !ok || len(f) != 5 || f[0] != "snapshot" || f[1] != name || f[2] != strconv.FormatUint(want, 10) {
			return fmt.Errorf("malformed, or not the mirror's %d rows", want)
		}
		if len(reply) != int(want)+2 {
			return fmt.Errorf("%d tuple lines", len(reply)-2)
		}
		for _, row := range reply[1 : len(reply)-1] {
			if !strings.HasPrefix(row, "+"+name+"(") {
				return fmt.Errorf("tuple line %q", row)
			}
		}
		return version(f[3])
	case "version":
		if len(f) != 3 || f[1] != "version" {
			return fmt.Errorf("malformed")
		}
		return version(f[2])
	case "queries":
		var got []string
		if list := strings.TrimPrefix(head, "ok queries "); list != "" {
			got = strings.Split(list, ",")
		}
		want := make([]string, 0, len(m.queries))
		for name := range m.queries {
			want = append(want, name)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !strings.HasPrefix(head, "ok queries ") || !slices.Equal(got, want) {
			return fmt.Errorf("the mirror holds %v", want)
		}
	case "ping":
		if head != "ok pong" {
			return fmt.Errorf("malformed")
		}
	default:
		return fmt.Errorf("an ok reply to an unknown command")
	}
	return nil
}

// readReply reads one reply: a line, or a whole enumerate frame.
func readReply(r *bufio.Reader) ([]string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return nil, err
	}
	reply := []string{line}
	if !strings.HasPrefix(line, "snapshot ") {
		return reply, nil
	}
	for line != ".\n" {
		if line, err = r.ReadString('\n'); err != nil {
			return nil, err
		}
		reply = append(reply, line)
	}
	return reply, nil
}

// FuzzWireSession drives one session through a decoded request program
// (wireProgram: register/unregister of fixed queries, apply, batches,
// every read verb, junk, lines past MaxLine; no subscribe, whose frames
// arrive asynchronously) and checks four properties: nothing panics; the
// session answers every request with exactly one reply — an enumerate
// frame is one, a batch line gets none — that agrees with a mirror
// database on counts, answers, rows and versions; the workspace's
// invariants hold afterwards; and a second session still answers ping
// and count correctly. Seeds run in tier-1; explore with go test
// -fuzz=FuzzWireSession ./internal/server.
func FuzzWireSession(f *testing.F) {
	for _, seed := range wireSeeded {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs := wirePlan(wireProgram(data))
		srv := New(Options{MaxLine: wireMaxLine})
		defer srv.Close()
		cs, ss := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); srv.ServeConn(ss) }()
		go func() {
			defer wg.Done()
			for _, req := range reqs {
				if _, err := io.WriteString(cs, req.line+"\n"); err != nil {
					return // the session ended on a line past MaxLine
				}
			}
		}()
		cs.SetReadDeadline(time.Now().Add(10 * time.Second))
		r := bufio.NewReader(cs)
		m := &wireMirror{db: dyndb.New(), queries: make(map[string]*cq.Query)}
		for i, req := range reqs {
			if !req.reply {
				continue
			}
			reply, err := readReply(r)
			if err != nil {
				t.Fatalf("request %d %q: no reply: %v", i, req.line, err)
			}
			if err := m.check(req, reply); err != nil {
				t.Fatalf("request %d %q: reply %q: %v", i, req.line, reply, err)
			}
		}
		if last := reqs[len(reqs)-1]; last.verb == "too long" {
			if reply, err := readReply(r); err == nil {
				t.Fatalf("the session answered %q after a line past MaxLine", reply)
			}
		}
		cs.Close()
		wg.Wait()

		ws := srv.Workspace()
		if err := ws.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		c := pipeClient(t, srv)
		if err := c.Ping(); err != nil {
			t.Fatalf("second session: %v", err)
		}
		for _, name := range wireNames {
			want, ok := m.count(name)
			if !ok {
				continue
			}
			n, version, err := c.Count(name)
			if err != nil || n != want || version != m.version {
				t.Fatalf("second session: count %s = %d at version %d (err %v), the mirror says %d at %d", name, n, version, err, want, m.version)
			}
		}
	})
}

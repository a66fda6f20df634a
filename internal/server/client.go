package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"

	"dyncq/internal/stream"
	"dyncq/pkg/dyncq"
)

// Delta is one asynchronous subscription frame as decoded by the
// client. A Resync delta means the server dropped Dropped frames up to
// and including Version because this client lagged; re-enumerate and
// skip deltas at or below the fresh snapshot's version.
type Delta struct {
	Query   string
	Version uint64
	Added   [][]dyncq.Value
	Removed [][]dyncq.Value
	Resync  bool
	Dropped uint64
	// Raw is the exact frame as it came off the wire, preserved so
	// tests can assert byte-identical streams across subscribers.
	Raw []byte
}

// Snapshot is a decoded `enumerate` response.
type Snapshot struct {
	Query   string
	Version uint64
	Arity   int
	Tuples  [][]dyncq.Value
}

// Client speaks the wire protocol over one connection. Command methods
// are safe for concurrent use (serialized round-trips); asynchronous
// subscription frames arrive on Deltas and must be drained while
// subscribed — the channel is buffered, but a full buffer eventually
// blocks the demux loop and with it command responses.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer

	mu sync.Mutex // serializes request/response round-trips

	resp   chan respFrame
	deltas chan Delta

	closeOnce sync.Once
	readErr   error
	readDone  chan struct{}
}

type respFrame struct {
	line  string
	block string // a snapshot frame's tuple lines, each ending in '\n'
	lines int    // the number of lines in block
}

// Dial connects to a dyncq server at addr ("host:port").
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (TCP or net.Pipe).
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:     conn,
		bw:       bufio.NewWriter(conn),
		resp:     make(chan respFrame, 4),
		deltas:   make(chan Delta, 1024),
		readDone: make(chan struct{}),
	}
	go c.demux()
	return c
}

// Deltas is the stream of subscription frames. Closed when the
// connection ends.
func (c *Client) Deltas() <-chan Delta { return c.deltas }

// Close tears the connection down. In-flight round-trips fail.
func (c *Client) Close() error {
	var err error
	c.closeOnce.Do(func() { err = c.conn.Close() })
	return err
}

// demux routes incoming lines: delta/resync frames to the Deltas
// channel, everything else (ok/err/bye/snapshot frames) to the
// round-trip response channel.
func (c *Client) demux() {
	defer func() {
		close(c.deltas)
		close(c.resp)
		close(c.readDone)
	}()
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "delta "):
			d, err := c.readDelta(sc, line)
			if err != nil {
				c.readErr = err
				return
			}
			c.deltas <- d
		case strings.HasPrefix(line, "resync "):
			d, err := parseResync(line)
			if err != nil {
				c.readErr = err
				return
			}
			c.deltas <- d
		case strings.HasPrefix(line, "snapshot "):
			var block strings.Builder // one string for the frame, not one per line
			lines := 0
			for sc.Scan() {
				l := sc.Bytes()
				if string(l) == "." {
					break
				}
				block.Grow(len(l) + 1) // doubles when full; Write alone grows a large buffer by 1.25×
				block.Write(l)
				block.WriteByte('\n')
				lines++
			}
			c.resp <- respFrame{line: line, block: block.String(), lines: lines}
		default:
			c.resp <- respFrame{line: line}
		}
	}
	if err := sc.Err(); err != nil && c.readErr == nil {
		c.readErr = err
	}
}

// readDelta consumes a delta frame's payload lines — nAdded '+' lines,
// then nRemoved '-' lines, of one arity — rebuilding both the decoded
// tuples and the exact raw bytes, sizing nothing from the peer's counts:
// each line is parsed where the scanner holds it into one value array.
// Header: delta <name> <version> <nAdded> <nRemoved>
func (c *Client) readDelta(sc *bufio.Scanner, header string) (Delta, error) {
	f := strings.Fields(header)
	if len(f) != 5 || f[0] != "delta" {
		return Delta{}, fmt.Errorf("malformed delta header %q", header)
	}
	version, err1 := strconv.ParseUint(f[2], 10, 64)
	nAdded, err2 := strconv.Atoi(f[3])
	nRemoved, err3 := strconv.Atoi(f[4])
	if err1 != nil || err2 != nil || err3 != nil || nAdded < 0 || nRemoved < 0 || nAdded > math.MaxInt-nRemoved {
		return Delta{}, fmt.Errorf("malformed delta header %q", header)
	}
	d := Delta{Query: f[1], Version: version, Raw: append([]byte(header), '\n')}
	vals, arity := []dyncq.Value{}, 0 // a boolean query's tuples are empty, not nil
	for i := 0; i < nAdded+nRemoved; i++ {
		if !sc.Scan() || string(sc.Bytes()) == "." {
			return Delta{}, fmt.Errorf("delta frame for %q truncated after %d lines", d.Query, i)
		}
		line := sc.Bytes()
		d.Raw = append(append(d.Raw, line...), '\n')
		added, next, err := decodeTuple(line, d.Query, vals)
		switch n := len(next) - len(vals); {
		case err != nil:
			return Delta{}, err
		case added != (i < nAdded):
			return Delta{}, fmt.Errorf("delta frame for %q: line %d is %q, header says %d added then %d removed", d.Query, i+1, line, nAdded, nRemoved)
		case i > 0 && n != arity:
			return Delta{}, fmt.Errorf("delta frame for %q: tuple line %q has %d values, the first had %d", d.Query, line, n, arity)
		}
		arity, vals = len(next)-len(vals), next
	}
	if !sc.Scan() || string(sc.Bytes()) != "." {
		return Delta{}, fmt.Errorf("delta frame for %q missing terminator", d.Query)
	}
	d.Raw = append(d.Raw, frameEnd...)
	d.Added, d.Removed = cutTuples(vals[:nAdded*arity], arity, nAdded), cutTuples(vals[nAdded*arity:], arity, nRemoved)
	return d, nil
}

// cutTuples slices n tuples of arity values each out of vals.
func cutTuples(vals []dyncq.Value, arity, n int) [][]dyncq.Value {
	tuples := make([][]dyncq.Value, n)
	for i := range tuples {
		tuples[i] = vals[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return tuples
}

// decodeTuple appends the values of a frame's tuple line, which must carry
// a sign and name query, to vals through stream.Parse. The update grammar
// has no empty tuple, so a boolean query's row, `±query()`, is matched here.
func decodeTuple[T string | []byte](line T, query string, vals []dyncq.Value) (added bool, out []dyncq.Value, err error) {
	signed := len(line) > 0 && (line[0] == '+' || line[0] == '-')
	if n := len(line); signed && n == len(query)+3 && string(line[1:n-2]) == query && string(line[n-2:]) == "()" {
		return line[0] == '+', vals, nil
	}
	op, rel, out, err := stream.Parse(line, nil, vals)
	switch {
	case err != nil:
		return false, vals, fmt.Errorf("frame for %q: malformed tuple line: %w", query, err)
	case !signed || string(rel) != query:
		return false, vals, fmt.Errorf("frame for %q: tuple line %q is not a signed line of the query", query, line)
	}
	return op == dyncq.OpInsert, out, nil
}

func parseResync(line string) (Delta, error) {
	f := strings.Fields(line)
	if len(f) != 4 {
		return Delta{}, fmt.Errorf("malformed resync line %q", line)
	}
	version, err := strconv.ParseUint(f[2], 10, 64)
	if err != nil {
		return Delta{}, fmt.Errorf("malformed resync line %q", line)
	}
	dropped, err := strconv.ParseUint(f[3], 10, 64)
	if err != nil {
		return Delta{}, fmt.Errorf("malformed resync line %q", line)
	}
	return Delta{Query: f[1], Version: version, Resync: true, Dropped: dropped, Raw: []byte(line + "\n")}, nil
}

// roundTrip sends one request line and awaits its response frame.
func (c *Client) roundTrip(req string) (respFrame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bw.WriteString(req)
	c.bw.WriteByte('\n')
	if err := c.bw.Flush(); err != nil { // a bufio.Writer keeps its first error, and Flush returns it
		return respFrame{}, err
	}
	f, ok := <-c.resp //dyncq:allow lockorder client request pipeline: c.mu serialises round-trips and the response wait IS the critical section; demux never takes c.mu, and a dead connection closes c.resp
	if !ok {
		if c.readErr != nil {
			return respFrame{}, c.readErr
		}
		return respFrame{}, errors.New("connection closed")
	}
	return f, nil
}

// okFields validates an `ok <verb> [<name>] …` response of a fixed arity
// and returns its fields after the verb and, for a request about a query
// (name not empty), after that query's name: exactly want of them.
func (c *Client) okFields(req, verb, name string, want int) ([]string, error) {
	fields, err := c.okReply(req, verb, name)
	if err == nil && len(fields) != want {
		return nil, fmt.Errorf("unexpected response to %q: %d fields after the verb, want %d", req, len(fields), want)
	}
	return fields, err
}

// okReply is okFields without the arity check.
func (c *Client) okReply(req, verb, name string) ([]string, error) {
	f, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(f.line, "err ") {
		return nil, errors.New(strings.TrimPrefix(f.line, "err "))
	}
	fields := strings.Fields(f.line)
	if len(fields) < 2 || fields[0] != "ok" || fields[1] != verb {
		return nil, fmt.Errorf("unexpected response %q to %q", f.line, req)
	}
	fields = fields[2:]
	if name != "" {
		if len(fields) == 0 || fields[0] != name {
			return nil, fmt.Errorf("response %q to %q answers another query than %q", f.line, req, name)
		}
		fields = fields[1:]
	}
	return fields, nil
}

// Register registers a query on the server.
func (c *Client) Register(name, query string) error {
	_, err := c.okFields("register "+name+" "+query, "registered", name, 2)
	return err
}

// Unregister removes a query.
func (c *Client) Unregister(name string) error {
	_, err := c.okFields("unregister "+name, "unregistered", name, 0)
	return err
}

// Apply applies one update; reports whether it changed the database
// and the resulting version.
func (c *Client) Apply(u dyncq.Update) (bool, uint64, error) {
	req := stream.AppendTupleLine([]byte("apply "), u.Op, u.Rel, u.Tuple)
	fields, err := c.okFields(string(req[:len(req)-1]), "applied", "", 2)
	if err != nil {
		return false, 0, err
	}
	version, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil || fields[0] != "0" && fields[0] != "1" {
		return false, 0, fmt.Errorf("unexpected applied response %v", fields)
	}
	return fields[0] == "1", version, nil
}

// ApplyBatch streams updates as one begin/commit block, committed
// atomically server-side. Returns the net change count and version.
func (c *Client) ApplyBatch(updates []dyncq.Update) (int, uint64, error) {
	c.mu.Lock()
	c.bw.WriteString("begin\n") // a bufio.Writer keeps its first error, and Flush returns it
	for _, u := range updates {
		if c.bw.Available() < stream.TupleLineLen(u.Rel, u.Tuple) {
			c.bw.Flush() // so that the line is appended in place, not to a fresh array
		}
		c.bw.Write(stream.AppendTupleLine(c.bw.AvailableBuffer(), u.Op, u.Rel, u.Tuple))
	}
	c.bw.WriteString("commit\n")
	if err := c.bw.Flush(); err != nil {
		c.mu.Unlock()
		return 0, 0, err
	}
	// Two responses: ok begin, then ok committed.
	beginResp, ok := <-c.resp //dyncq:allow lockorder client request pipeline: same response-wait-under-c.mu contract as roundTrip
	if !ok {
		c.mu.Unlock()
		return 0, 0, errors.New("connection closed")
	}
	commitResp, ok := <-c.resp //dyncq:allow lockorder client request pipeline: same response-wait-under-c.mu contract as roundTrip
	c.mu.Unlock()
	if !ok {
		return 0, 0, errors.New("connection closed")
	}
	if beginResp.line != "ok begin" {
		return 0, 0, fmt.Errorf("unexpected response %q to begin", beginResp.line)
	}
	if strings.HasPrefix(commitResp.line, "err ") {
		return 0, 0, errors.New(strings.TrimPrefix(commitResp.line, "err "))
	}
	fields := strings.Fields(commitResp.line)
	if len(fields) != 4 || fields[0] != "ok" || fields[1] != "committed" {
		return 0, 0, fmt.Errorf("unexpected response %q to commit", commitResp.line)
	}
	n, err1 := strconv.Atoi(fields[2])
	version, err2 := strconv.ParseUint(fields[3], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("unexpected response %q to commit", commitResp.line)
	}
	return n, version, nil
}

// Count returns |ϕ(D)| for name and the observed version.
func (c *Client) Count(name string) (uint64, uint64, error) {
	fields, err := c.okFields("count "+name, "count", name, 2)
	if err != nil {
		return 0, 0, err
	}
	n, err1 := strconv.ParseUint(fields[0], 10, 64)
	version, err2 := strconv.ParseUint(fields[1], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("unexpected count response %v", fields)
	}
	return n, version, nil
}

// Answer reports whether ϕ(D) is nonempty for name.
func (c *Client) Answer(name string) (bool, uint64, error) {
	fields, err := c.okFields("answer "+name, "answer", name, 2)
	if err != nil {
		return false, 0, err
	}
	version, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil || fields[0] != "true" && fields[0] != "false" {
		return false, 0, fmt.Errorf("unexpected answer response %v", fields)
	}
	return fields[0] == "true", version, nil
}

// Enumerate fetches the full result of name from a server-side pinned
// MVCC snapshot.
func (c *Client) Enumerate(name string) (*Snapshot, error) {
	f, err := c.roundTrip("enumerate " + name)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(f.line, "err ") {
		return nil, errors.New(strings.TrimPrefix(f.line, "err "))
	}
	fields := strings.Fields(f.line)
	if len(fields) != 5 || fields[0] != "snapshot" {
		return nil, fmt.Errorf("unexpected response %q to enumerate", f.line)
	}
	n, err1 := strconv.Atoi(fields[2])
	version, err2 := strconv.ParseUint(fields[3], 10, 64)
	arity, err3 := strconv.Atoi(fields[4])
	if err1 != nil || err2 != nil || err3 != nil || arity < 0 {
		return nil, fmt.Errorf("malformed snapshot header %q", f.line)
	}
	if fields[1] != name {
		return nil, fmt.Errorf("snapshot header %q answers another query than %q", f.line, name)
	}
	if n != f.lines {
		return nil, fmt.Errorf("snapshot header promises %d tuples, frame has %d", n, f.lines)
	}
	// Every value takes at least one byte of its line, so a header whose
	// n × arity exceeds the frame's line bytes cannot be true; checking it
	// first bounds the backing array by the frame the peer actually sent.
	size := len(f.block) - f.lines // newlines excluded
	if n > 0 && arity > size/n {
		return nil, fmt.Errorf("snapshot header %q promises more values than its %d bytes of tuples hold", f.line, size)
	}
	vals := make([]dyncq.Value, 0, n*arity) // one backing array for the frame's tuples
	for line := range strings.Lines(f.block) {
		line = strings.TrimSuffix(line, "\n")
		added, next, err := decodeTuple(line, name, vals)
		if err != nil {
			return nil, err
		}
		if !added {
			return nil, fmt.Errorf("snapshot tuple line %q is a - line; a snapshot lists only + lines", line)
		}
		if got := len(next) - len(vals); got != arity {
			return nil, fmt.Errorf("snapshot tuple line %q has %d values, header says %d", line, got, arity)
		}
		vals = next
	}
	return &Snapshot{Query: name, Version: version, Arity: arity, Tuples: cutTuples(vals, arity, n)}, nil
}

// Subscribe starts the delta stream for name. The returned version is
// a lower bound from before capture started: sync by calling Enumerate
// next and skipping deltas at or below that snapshot's version.
func (c *Client) Subscribe(name string) (uint64, error) {
	fields, err := c.okFields("subscribe "+name, "subscribed", name, 1)
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(fields[0], 10, 64)
}

// Unsubscribe stops the delta stream for name. Frames already in
// flight may still arrive on Deltas.
func (c *Client) Unsubscribe(name string) error {
	_, err := c.okFields("unsubscribe "+name, "unsubscribed", name, 0)
	return err
}

// Queries lists the registered query names.
func (c *Client) Queries() ([]string, error) {
	fields, err := c.okReply("queries", "queries", "")
	if err != nil || len(fields) == 0 {
		return nil, err
	}
	if len(fields) > 1 {
		return nil, fmt.Errorf("unexpected queries response %v", fields)
	}
	return strings.Split(fields[0], ","), nil
}

// Version returns the server's committed version counter.
func (c *Client) Version() (uint64, error) {
	fields, err := c.okFields("version", "version", "", 1)
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(fields[0], 10, 64)
}

// Ping round-trips a no-op.
func (c *Client) Ping() error {
	_, err := c.okFields("ping", "pong", "", 0)
	return err
}

// Quit asks for a clean goodbye and closes the connection.
func (c *Client) Quit() error {
	f, err := c.roundTrip("quit")
	if err == nil && f.line != "bye" {
		err = fmt.Errorf("unexpected response %q to quit", f.line)
	}
	c.Close()
	return err
}

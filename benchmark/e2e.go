package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/server"
)

// config is what a run needs besides the workload; only seed, rounds and
// the durations are reachable from flags, the rest is fixed or for tests.
type config struct {
	serverBin string        // built `dyncq` binary
	rounds    int           // timed rounds
	round     time.Duration // length of one round; the warm-up is four, capped at 1s
	setups    int           // times the server is started and preloaded; setup_s is their median
	// corruptDelta, when > 0, makes the subscriber mirror drop that
	// delta (1-based) instead of applying it. Test-only: proves the
	// mirror check can fail.
	corruptDelta int
}

// ---- the server process ----

type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	stderr  bytes.Buffer  // shown only if the server ends badly
	drained chan struct{} // closed when the process's stdout hit EOF
}

// startServer execs `dyncq serve` on an ephemeral loopback port and
// returns once it has printed its listening address.
func startServer(bin string) (*serverProc, error) {
	p := &serverProc{cmd: exec.Command(bin, "serve", "-addr", "127.0.0.1:0"), drained: make(chan struct{})}
	cmd := p.cmd
	// One scheduler thread: the server shares one CPU with the load
	// generator (run pins this process, the server inherits that) and
	// applies batches sequentially (-workers 0) anyway.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = &p.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addr:
		return p, nil
	case <-p.drained:
		cmd.Wait()
		return nil, fmt.Errorf("dyncq serve exited before listening: %s", p.stderr.String())
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, errors.New("dyncq serve did not start listening within 20s")
	}
}

// stop asks for a graceful drain, then waits for the process to end.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-p.drained:
	case <-time.After(8 * time.Second):
		p.cmd.Process.Kill()
		<-p.drained
	}
	if err := p.cmd.Wait(); err != nil {
		fmt.Fprintf(os.Stderr, "dyncq serve ended with %v:\n%s", err, p.stderr.String())
	}
}

// ---- the writer connection ----

// wire is the writer's connection. It sends batches that were encoded
// before timing started and reads the two reply lines, so the load
// generator spends no measured time formatting.
type wire struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialWire(addr string) (*wire, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wire{conn: conn, br: bufio.NewReader(conn)}, nil
}

var okCommitted = []byte("ok committed ")

// commit sends one `begin … commit` block and waits for `ok committed`.
func (w *wire) commit(blob []byte) (n int, version uint64, err error) {
	if _, err := w.conn.Write(blob); err != nil {
		return 0, 0, err
	}
	line, err := w.br.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	if string(line) != "ok begin\n" {
		return 0, 0, fmt.Errorf("reply to begin: %q", line)
	}
	if line, err = w.br.ReadSlice('\n'); err != nil {
		return 0, 0, err
	}
	rest, ok := bytes.CutPrefix(bytes.TrimSuffix(line, []byte("\n")), okCommitted)
	nb, vb, ok2 := bytes.Cut(rest, []byte(" "))
	if !ok || !ok2 {
		return 0, 0, fmt.Errorf("reply to commit: %q", line)
	}
	n, err1 := strconv.Atoi(string(nb))
	version, err2 := strconv.ParseUint(string(vb), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("reply to commit: %q", line)
	}
	return n, version, nil
}

// ---- the subscriber mirror ----

// subscriber owns the second connection's delta stream: it stamps each
// frame on arrival and replays it into a mirror of the result, which the
// final check compares with the oracle.
type subscriber struct {
	origin  time.Time
	corrupt int

	mu     sync.Mutex
	mirror map[uint64]struct{}
	first  uint64   // version of recvAt[0]
	recvAt []int64  // ns since origin at which each version's complete frame had been read
	faults []string // protocol violations: gaps, resyncs, a removed tuple that was not there, …
	done   chan struct{}
}

func (s *subscriber) run(deltas <-chan server.Delta) {
	defer close(s.done)
	seen := 0
	for d := range deltas {
		at := int64(time.Since(s.origin))
		s.mu.Lock()
		switch want := s.first + uint64(len(s.recvAt)); {
		case d.Resync:
			s.faults = append(s.faults, fmt.Sprintf("resync at version %d, %d frames dropped", d.Version, d.Dropped))
		case d.Version != want:
			s.faults = append(s.faults, fmt.Sprintf("delta version %d, want %d (versions must be dense)", d.Version, want))
		default:
			s.recvAt = append(s.recvAt, at)
			if seen++; seen == s.corrupt {
				d.Added, d.Removed = nil, nil
			}
			for _, t := range d.Removed {
				if _, ok := s.mirror[pack(t)]; !ok {
					s.faults = append(s.faults, fmt.Sprintf("version %d removes %v, which the mirror does not hold", d.Version, t))
				}
				delete(s.mirror, pack(t))
			}
			for _, t := range d.Added {
				if _, ok := s.mirror[pack(t)]; ok {
					s.faults = append(s.faults, fmt.Sprintf("version %d adds %v, which the mirror already holds", d.Version, t))
				}
				s.mirror[pack(t)] = struct{}{}
			}
		}
		s.mu.Unlock()
	}
}

// received reports the arrival time of version's frame.
func (s *subscriber) received(version uint64) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if version < s.first || version >= s.first+uint64(len(s.recvAt)) {
		return 0, false
	}
	return s.recvAt[version-s.first], true
}

// ---- one load phase ----

// sample is what one round measured.
type sample struct {
	wall     time.Duration
	cpu      float64 // seconds of server user+sys CPU in the round
	slow     float64 // the host's slowdown around the round (see hostProbe); 1 on the reference host
	commits  int
	updates  int
	reads    int     // completed enumerate and count round trips
	commitNS []int64 // sorted
	notifyNS []int64 // sorted
	readNS   []int64 // sorted; enumerate round trips only
}

func (s sample) updatesPerS() float64 { return float64(s.updates) / s.wall.Seconds() }
func (s sample) readsPerS() float64   { return float64(s.reads) / s.wall.Seconds() }
func (s sample) cpuPerUpdateUS() float64 {
	return s.cpu * 1e6 / float64(max(s.updates, 1))
}
func (s sample) commitP50US() float64 { return percentileUS(s.commitNS, 0.5) }
func (s sample) notifyP50US() float64 { return percentileUS(s.notifyNS, 0.5) }
func (s sample) readP50US() float64   { return percentileUS(s.readNS, 0.5) }

// harness drives one started server through a workload.
type harness struct {
	cfg    config
	s      *stream
	srv    *serverProc
	w      *wire
	c      *server.Client // the second connection: registers, subscribes, polls, verifies
	origin time.Time

	sent    int    // batches committed since preload
	version uint64 // server version after the last commit
	sendAt  []int64
	sub     *subscriber

	attempted, failed int
	failures          []string
}

func (h *harness) fail(format string, args ...any) {
	h.failed++
	if len(h.failures) < 8 {
		h.failures = append(h.failures, fmt.Sprintf(format, args...))
	}
}

// connect starts a server, registers the queries and preloads the store
// through the wire. The returned durations are exec→listening+dialled
// and exec→last preload commit acknowledged.
func connect(cfg config, s *stream) (h *harness, started, ready time.Duration, err error) {
	t0 := time.Now()
	srv, err := startServer(cfg.serverBin)
	if err != nil {
		return nil, 0, 0, err
	}
	h = &harness{cfg: cfg, s: s, srv: srv, origin: time.Now()}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	if h.w, err = dialWire(srv.addr); err != nil {
		return nil, 0, 0, err
	}
	if h.c, err = server.Dial(srv.addr); err != nil {
		return nil, 0, 0, err
	}
	started = time.Since(t0)
	for _, q := range s.w.queries {
		if err = h.c.Register(q.name, q.text); err != nil {
			return nil, 0, 0, fmt.Errorf("register %s: %w", q.name, err)
		}
	}
	done := 0
	for _, blob := range s.preloadWire {
		n, v, cerr := h.w.commit(blob)
		if cerr != nil {
			err = fmt.Errorf("preload: %w", cerr)
			return nil, 0, 0, err
		}
		done += n
		h.version = v
	}
	if done != len(s.preload) {
		err = fmt.Errorf("preload committed %d tuples, generated %d", done, len(s.preload))
		return nil, 0, 0, err
	}
	return h, started, time.Since(t0), nil
}

func (h *harness) close() {
	if h.c != nil {
		h.c.Quit()
	}
	if h.w != nil {
		h.w.conn.Close()
	}
	if h.sub != nil {
		<-h.sub.done
	}
	h.srv.stop()
}

// attach subscribes the second connection to queries[0] and seeds the
// mirror from an enumerate, per the protocol's subscribe → enumerate →
// skip-stale rule. The writer has not started, so the snapshot is exact.
func (h *harness) attach() error {
	name := h.s.w.queries[0].name
	if _, err := h.c.Subscribe(name); err != nil {
		return err
	}
	snap, err := h.c.Enumerate(name)
	if err != nil {
		return err
	}
	h.sub = &subscriber{origin: h.origin, corrupt: h.cfg.corruptDelta, mirror: make(map[uint64]struct{}, len(snap.Tuples)),
		first: snap.Version + 1, done: make(chan struct{})}
	for _, t := range snap.Tuples {
		h.sub.mirror[pack(t)] = struct{}{}
	}
	go h.sub.run(h.c.Deltas())
	return nil
}

// round runs the closed loop for d: the writer commits pre-encoded
// batches back to back and, on a polling workload, the second connection
// alternates enumerate and count on queries[0]. It returns after the
// subscriber (if attached) has read the last committed version's frame.
func (h *harness) round(d time.Duration) sample {
	var (
		out      sample
		stop     atomic.Bool
		pollDone = make(chan struct{})
		name     = h.s.w.queries[0].name
	)
	firstSeq := h.sent
	start := time.Now()

	// The poller's tallies are its own until pollDone closes.
	var reads int
	var readNS []int64
	var pollFault string
	if h.s.w.poll {
		go func() {
			defer close(pollDone)
			var last uint64
			for i := 0; !stop.Load(); i++ {
				var v uint64
				var err error
				t := time.Now()
				if i%2 == 0 {
					var snap *server.Snapshot
					if snap, err = h.c.Enumerate(name); err == nil {
						v = snap.Version
						readNS = append(readNS, int64(time.Since(t)))
					}
				} else {
					_, v, err = h.c.Count(name)
				}
				reads++
				if err != nil {
					pollFault = fmt.Sprintf("poller: %v", err)
					return
				}
				if v < last {
					pollFault = fmt.Sprintf("poller read version %d after %d", v, last)
				}
				last = v
			}
		}()
	} else {
		close(pollDone)
	}

	cycle := len(h.s.cycleWire)
	for time.Since(start) < d {
		blob := h.s.cycleWire[h.sent%cycle]
		t := time.Now()
		n, v, err := h.w.commit(blob)
		lat := time.Since(t)
		h.sendAt = append(h.sendAt, int64(t.Sub(h.origin)))
		h.sent++
		out.commits++
		if err != nil {
			h.fail("commit %d: %v", h.sent, err)
			break
		}
		if want := h.s.w.batch; n != want {
			h.fail("commit %d netted %d updates, the oracle %d", h.sent, n, want)
		}
		if v != h.version+1 {
			h.fail("commit %d returned version %d, want %d", h.sent, v, h.version+1)
		}
		h.version = v
		out.updates += n
		out.commitNS = append(out.commitNS, int64(lat))
	}
	out.wall = time.Since(start)
	stop.Store(true)
	<-pollDone
	out.reads, out.readNS = reads, readNS
	if pollFault != "" {
		h.fail("%s", pollFault)
	}

	if h.sub != nil {
		// Every commit produces exactly one frame; wait for the last one.
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, ok := h.sub.received(h.version); ok {
				break
			}
			if time.Now().After(deadline) {
				h.fail("subscriber never received version %d", h.version)
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		base := h.version - uint64(h.sent) // version before the first batch
		for seq := firstSeq; seq < h.sent; seq++ {
			if at, ok := h.sub.received(base + uint64(seq) + 1); ok {
				out.notifyNS = append(out.notifyNS, at-h.sendAt[seq])
			}
		}
	}
	h.attempted += out.commits + out.reads + len(out.notifyNS)
	sortInt64(out.commitNS)
	sortInt64(out.notifyNS)
	sortInt64(out.readNS)
	return out
}

// verify compares the server's final answers, and the subscriber's
// mirror, with a from-scratch evaluation over the oracle store. It
// returns the time the from-scratch evaluation took.
func (h *harness) verify() (recompute time.Duration, err error) {
	oracle, err := h.s.preloadDB()
	if err != nil {
		return 0, err
	}
	for i := 0; i < h.sent%len(h.s.cycleWire); i++ {
		if err := oracle.ApplyAll(h.s.batchAt(i)); err != nil {
			return 0, fmt.Errorf("oracle replay: %w", err)
		}
	}
	for i, q := range h.s.w.queries {
		t := time.Now()
		want := packSet(eval.Evaluate(cq.MustParse(q.text), oracle).Tuples())
		recompute += time.Since(t)

		snap, err := h.c.Enumerate(q.name)
		if err != nil {
			return 0, err
		}
		n, _, err := h.c.Count(q.name)
		if err != nil {
			return 0, err
		}
		h.attempted += 2
		if n != uint64(len(want)) {
			h.fail("%s: server counts %d tuples, the oracle %d", q.name, n, len(want))
		}
		if diff := firstDiff(packSet(snap.Tuples), want); diff != "" {
			h.fail("%s: server enumerate vs oracle: %s", q.name, diff)
		}
		if i == 0 && h.sub != nil {
			// The writer is idle and the last frame has been read: the mirror is at rest.
			h.sub.mu.Lock()
			faults, diff := h.sub.faults, firstDiff(h.sub.mirror, want)
			h.sub.mu.Unlock()
			h.attempted++
			for _, f := range faults {
				h.fail("%s: subscriber: %s", q.name, f)
			}
			if diff != "" {
				h.fail("%s: subscriber mirror vs oracle: %s", q.name, diff)
			}
		}
	}
	return recompute, nil
}

func packSet(ts [][]dyndb.Value) map[uint64]struct{} {
	set := make(map[uint64]struct{}, len(ts))
	for _, t := range ts {
		set[pack(t)] = struct{}{}
	}
	return set
}

// firstDiff names the smallest tuple (in packed order) that only one
// side holds; "" when the sets are equal.
func firstDiff(got, want map[uint64]struct{}) string {
	var only []uint64
	for k := range got {
		if _, ok := want[k]; !ok {
			only = append(only, k)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			only = append(only, k)
		}
	}
	if len(only) == 0 {
		return ""
	}
	sort.Slice(only, func(i, j int) bool { return only[i] < only[j] })
	k := only[0]
	side := "missing"
	if _, ok := got[k]; ok {
		side = "unexpected"
	}
	return fmt.Sprintf("%d tuples differ, first: %s packed tuple %d/%d/%d", len(only), side, k>>42, k>>21&(1<<21-1), k&(1<<21-1))
}

// e2e is everything one end-to-end run of a workload measured.
type e2e struct {
	setupS      []float64 // per set-up, corrected for the host's slowdown around it
	startMS     float64
	rounds      []sample
	clientCPU   float64 // seconds of load-generator user+sys CPU across the timed rounds
	cpuTotal    float64 // machine CPU ticks across the timed rounds
	cpuSteal    float64
	rssMB       float64
	recomputeMS float64
	attempted   int
	failed      int
	failures    []string
}

// slowdown is the host's median slowdown over the timed rounds.
func (r *e2e) slowdown() float64 {
	slow := make([]float64, len(r.rounds))
	for i, s := range r.rounds {
		slow[i] = s.slow
	}
	return median(slow)
}

// trust says how far the timed rounds can be believed: the load
// generator's share of a core, the share of machine CPU time the host
// stole, and a `noisy` note for each that is out of line.
func (r *e2e) trust() (cpuShare, stealShare float64, notes []string) {
	var wall float64
	for _, s := range r.rounds {
		wall += s.wall.Seconds()
	}
	cpuShare, stealShare = r.clientCPU/max(wall, 1e-9), r.cpuSteal/max(r.cpuTotal, 1)
	if cpuShare > 0.9 {
		notes = append(notes, fmt.Sprintf("noisy: the load generator used %.2f of a core", cpuShare))
	}
	if stealShare > 0.03 {
		notes = append(notes, fmt.Sprintf("noisy: %.1f%% of machine CPU time was stolen", 100*stealShare))
	}
	return cpuShare, stealShare, notes
}

// runE2E measures one workload against a separately started server.
func runE2E(cfg config, s *stream) (*e2e, error) {
	res := &e2e{}
	probe := newHostProbe()
	var h *harness
	for i := 0; i < cfg.setups; i++ {
		if h != nil {
			h.close()
		}
		before := probe.slowdown()
		var started, ready time.Duration
		var err error
		if h, started, ready, err = connect(cfg, s); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, ready.Seconds()/((before+probe.slowdown())/2))
		res.startMS = float64(started) / 1e6
	}
	defer h.close()

	if s.w.subscribe {
		if err := h.attach(); err != nil {
			return nil, err
		}
	}
	h.round(min(4*cfg.round, time.Second)) // warm-up, not reported

	pid := h.srv.cmd.Process.Pid
	clientCPU0, _ := procCPUSeconds(os.Getpid()) // feeds a trust note only; 0 if unreadable
	total0, steal0 := cpuTimes()
	before := probe.slowdown()
	for i := 0; i < cfg.rounds; i++ {
		cpu0, err := serverCPUSeconds(pid)
		if err != nil {
			return nil, err
		}
		smp := h.round(cfg.round)
		cpu1, err := serverCPUSeconds(pid)
		if err != nil {
			return nil, err
		}
		after := probe.slowdown()
		smp.cpu, smp.slow = cpu1-cpu0, (before+after)/2
		res.rounds = append(res.rounds, smp)
		before = after
	}
	clientCPU1, _ := procCPUSeconds(os.Getpid())
	total1, steal1 := cpuTimes()
	res.clientCPU = clientCPU1 - clientCPU0
	res.cpuTotal, res.cpuSteal = total1-total0, steal1-steal0
	var err error
	if res.rssMB, err = procPeakRSSMB(pid); err != nil {
		return nil, err
	}

	recompute, err := h.verify()
	if err != nil {
		return nil, err
	}
	res.recomputeMS = float64(recompute) / 1e6
	res.attempted, res.failed, res.failures = h.attempted, h.failed, h.failures
	return res, nil
}

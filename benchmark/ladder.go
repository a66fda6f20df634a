package main

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"dyncq/internal/dyndb"
	"dyncq/internal/server"
	"dyncq/pkg/dyncq"
)

// Span names, top of the ladder first. A workload without a subscriber
// has no capture rung and one without a poller no snapshot rung; the
// rung above then parents the one below directly.
const (
	spServer    = "server.commit"    // Client.ApplyBatch against an in-process Server on a loopback listener
	spParse     = "stream.parse"     // dyncq.ParseUpdate over the batch's lines
	spFormat    = "stream.format"    // dyncq.FormatUpdate over the batch's updates
	spSnapshot  = "snapshot.commit"  // Workspace.ApplyBatch, then a Handle.Snapshot pin
	spPin       = "snapshot.pin"     // that pin alone
	spCapture   = "capture.commit"   // Workspace.ApplyBatch with CaptureDeltas on
	spWorkspace = "workspace.commit" // Workspace.ApplyBatch alone
	spNetDelta  = "dyndb.netdelta"   // bare Database.NetDelta
	spApply     = "dyndb.apply"      // bare Database.ApplyNetDelta
	spCore      = "core.maintain"    // Handle.MaintenanceNS of the core-routed queries
	spIVM       = "ivm.maintain"     // Handle.MaintenanceNS of the ivm-routed queries
	spEnumerate = "server.enumerate" // Client.Enumerate round trip
	spCount     = "server.count"     // Client.Count round trip
)

// ladder is what the traced run measured besides its spans.
type ladder struct {
	spans        []span
	batches      int
	updates      int
	survivors    int
	registerMS   float64
	loadMS       float64
	deltaTuples  int
	resultTuples uint64
	pinColdUS    float64
	snap         dyncq.SnapshotCacheStats
	notifyGapNS  []int64
	dropped      uint64
	resyncs      int
	frames       server.FrameCacheStats
}

// newWorkspace registers the workload's queries on ws and loads the
// preload, returning the handles and both durations.
func newWorkspace(ws *dyncq.Workspace, s *stream, db *dyndb.Database) (hs []*dyncq.Handle, register, load time.Duration, err error) {
	t := time.Now()
	for _, q := range s.w.queries {
		h, err := ws.Register(q.name, q.text)
		if err != nil {
			return nil, 0, 0, err
		}
		hs = append(hs, h)
	}
	register = time.Since(t)
	t = time.Now()
	if err := ws.Load(db); err != nil {
		return nil, 0, 0, err
	}
	return hs, register, time.Since(t), nil
}

// runLadder replays the workload's first batches through each rung.
func runLadder(s *stream) (*ladder, error) {
	w := s.w
	tr := &tracer{origin: time.Now()}
	l := &ladder{batches: w.ladder, updates: w.ladder * w.batch}
	db, err := s.preloadDB()
	if err != nil {
		return nil, err
	}
	batches := make([][]dyndb.Update, l.batches)
	for i := range batches {
		batches[i] = s.batchAt(i)
	}
	// Each rung's parent is the nearest rung above that the workload has.
	parentOfCapture := spServer
	if w.poll {
		parentOfCapture = spSnapshot
	}
	parentOfWorkspace := parentOfCapture
	if w.subscribe {
		parentOfWorkspace = spCapture
	}
	counts := map[string][]uint64{} // rung → per-query result sizes after the replay, to prove lockstep
	tally := func(rung string, hs []*dyncq.Handle) {
		for _, h := range hs {
			counts[rung] = append(counts[rung], h.Count())
		}
	}

	// Rung: the wire text, both directions.
	for i, b := range batches {
		lines := bytes.Split(bytes.TrimSuffix(s.cycleWire[i%len(s.cycleWire)], []byte("\n")), []byte("\n"))
		text := make([]string, 0, len(b))
		for _, ln := range lines[1 : len(lines)-1] { // between begin and commit
			text = append(text, string(ln))
		}
		var perr error
		tr.time(spParse, spServer, i, func() {
			for _, ln := range text {
				if _, err := dyncq.ParseUpdate(ln); err != nil {
					perr = err
				}
			}
		})
		if perr != nil {
			return nil, perr
		}
		tr.time(spFormat, spServer, i, func() {
			for _, u := range b {
				_ = dyncq.FormatUpdate(u)
			}
		})
	}

	// Rung: the bare store.
	store := db.Clone()
	for i, b := range batches {
		var surv []dyndb.Update
		var nerr error
		tr.time(spNetDelta, spWorkspace, i, func() { surv, nerr = store.NetDelta(b) })
		if nerr != nil {
			return nil, nerr
		}
		tr.time(spApply, spWorkspace, i, func() { store.ApplyNetDelta(surv, 0) })
		l.survivors += len(surv)
	}

	// Rung: the workspace with the workload's queries; engine busy time
	// is what each handle's maintenance clock advanced by.
	ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{})
	hs, register, load, err := newWorkspace(ws, s, db)
	if err != nil {
		return nil, err
	}
	l.registerMS, l.loadMS = float64(register)/1e6, float64(load)/1e6
	busy := func() (core, ivm int64) {
		for _, h := range hs {
			ns, _ := h.MaintenanceNS()
			if h.Strategy() == dyncq.StrategyCore {
				core += ns
			} else {
				ivm += ns
			}
		}
		return
	}
	for i, b := range batches {
		core0, ivm0 := busy()
		var aerr error
		tr.time(spWorkspace, parentOfWorkspace, i, func() { _, aerr = ws.ApplyBatch(b) })
		if aerr != nil {
			return nil, aerr
		}
		core1, ivm1 := busy()
		at := tr.spans[len(tr.spans)-1].start
		tr.spans = append(tr.spans,
			span{name: spCore, parent: spWorkspace, req: i, start: at, end: at + core1 - core0},
			span{name: spIVM, parent: spWorkspace, req: i, start: at, end: at + ivm1 - ivm0})
	}
	tally(spWorkspace, hs)

	// Rung: the same with delta capture on the subscribed query.
	if w.subscribe {
		ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{})
		hs, _, _, err := newWorkspace(ws, s, db)
		if err != nil {
			return nil, err
		}
		hook := func(ev dyncq.DeltaEvent) { l.deltaTuples += len(ev.Added) + len(ev.Removed) }
		if err := ws.CaptureDeltas(w.queries[0].name, hook); err != nil {
			return nil, err
		}
		for i, b := range batches {
			var aerr error
			tr.time(spCapture, parentOfCapture, i, func() { _, aerr = ws.ApplyBatch(b) })
			if aerr != nil {
				return nil, aerr
			}
		}
		l.resultTuples = hs[0].Count()
		tally(spCapture, hs)
	}

	// Rung: the same with a reader pinning a snapshot after every commit.
	if w.poll {
		ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{})
		hs, _, _, err := newWorkspace(ws, s, db)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		hs[0].Snapshot() // nothing cached yet: materialises the result
		l.pinColdUS = float64(time.Since(t)) / 1e3
		for i, b := range batches {
			var aerr error
			tr.time(spSnapshot, spServer, i, func() {
				_, aerr = ws.ApplyBatch(b)
				tr.time(spPin, spSnapshot, i, func() { hs[0].Snapshot() })
			})
			if aerr != nil {
				return nil, aerr
			}
		}
		l.snap = hs[0].SnapshotCacheStats()
		tally(spSnapshot, hs)
	}

	// Rung: the server, in process, on a loopback listener.
	srv := server.New(server.Options{})
	defer srv.Close()
	hs, _, _, err = newWorkspace(srv.Workspace(), s, db)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	writer, err := server.Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer writer.Close()
	var second *server.Client
	arrived := make(chan int64, l.batches) // one stamp per commit: the subscriber never blocks on the replay loop
	name := w.queries[0].name
	if w.subscribe || w.poll {
		if second, err = server.Dial(ln.Addr().String()); err != nil {
			return nil, err
		}
		defer second.Close()
	}
	if w.subscribe {
		if _, err := second.Subscribe(name); err != nil {
			return nil, err
		}
		go func() {
			for d := range second.Deltas() {
				if d.Resync {
					l.resyncs++ // read after the loop below has seen every frame, or not at all
				}
				arrived <- tr.now()
			}
		}()
	}
	for i, b := range batches {
		var n int
		var aerr error
		tr.time(spServer, "", i, func() { n, _, aerr = writer.ApplyBatch(b) })
		if aerr != nil {
			return nil, aerr
		}
		if n != len(b) {
			return nil, fmt.Errorf("ladder: batch %d netted %d of %d updates", i, n, len(b))
		}
		if w.subscribe {
			select {
			case at := <-arrived:
				l.notifyGapNS = append(l.notifyGapNS, at-tr.spans[len(tr.spans)-1].end)
			case <-time.After(10 * time.Second):
				return nil, fmt.Errorf("ladder: no delta frame for batch %d", i)
			}
		}
		if w.poll {
			var rerr error
			if i%2 == 0 {
				tr.time(spEnumerate, "", i, func() { _, rerr = second.Enumerate(name) })
			} else {
				tr.time(spCount, "", i, func() { _, _, rerr = second.Count(name) })
			}
			if rerr != nil {
				return nil, rerr
			}
		}
	}
	l.dropped, l.frames = srv.DroppedFrames(name), srv.FrameCacheStats()
	tally(spServer, hs)
	for rung, c := range counts {
		if fmt.Sprint(c) != fmt.Sprint(counts[spWorkspace]) {
			return nil, fmt.Errorf("ladder: rung %s ended at result sizes %v, rung %s at %v: the rungs left lockstep", rung, c, spWorkspace, counts[spWorkspace])
		}
	}
	sortInt64(l.notifyGapNS)
	l.spans = tr.spans
	return l, nil
}

// perLayer is BENCHMARK.json's per_layer list. It opens with the second
// connection's end-to-end metrics (see secondConn), which the traced run
// takes from its own end-to-end rounds.
var perLayer = []metricDef{
	{name: "notify_p50_us", unit: "us", better: "lower"},
	{name: "read_p50_us", unit: "us", better: "lower"},
	{name: "reads_per_s", unit: "1/s", better: "higher"},
	{name: "stream.parse_ns_per_update", unit: "ns", better: "lower"},
	{name: "stream.format_ns_per_update", unit: "ns", better: "lower"},
	{name: "dyndb.netdelta_ns_per_update", unit: "ns", better: "lower"},
	{name: "dyndb.apply_ns_per_update", unit: "ns", better: "lower"},
	{name: "dyndb.survivor_ratio", unit: "ratio", better: "higher"},
	{name: "core.maintain_ns_per_update", unit: "ns", better: "lower"},
	{name: "ivm.maintain_ns_per_update", unit: "ns", better: "lower"},
	{name: "eval.recompute_ms", unit: "ms", better: "lower"},
	{name: "workspace.commit_ns_per_update", unit: "ns", better: "lower"},
	{name: "workspace.self_ns_per_update", unit: "ns", better: "lower"},
	{name: "workspace.register_ms", unit: "ms", better: "lower"},
	{name: "workspace.load_ms", unit: "ms", better: "lower"},
	{name: "capture.ns_per_commit", unit: "ns", better: "lower"},
	{name: "capture.delta_tuples_per_commit", unit: "count", better: "lower"},
	{name: "capture.result_tuples", unit: "count", better: "lower"},
	{name: "capture.useful_ratio", unit: "ratio", better: "higher"},
	{name: "snapshot.advance_ns_per_commit", unit: "ns", better: "lower"},
	{name: "snapshot.patched", unit: "count", better: "higher"},
	{name: "snapshot.rebuilt", unit: "count", better: "lower"},
	{name: "snapshot.invalidated", unit: "count", better: "lower"},
	{name: "snapshot.pin_hot_ns", unit: "ns", better: "lower"},
	{name: "snapshot.pin_cold_us", unit: "us", better: "lower"},
	{name: "snapshot.hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.commit_self_us", unit: "us", better: "lower"},
	{name: "server.notify_gap_us", unit: "us", better: "lower"},
	{name: "server.dropped_frames", unit: "count", better: "lower"},
	{name: "server.resyncs", unit: "count", better: "lower"},
	{name: "server.enumerate_us", unit: "us", better: "lower"},
	{name: "server.count_us", unit: "us", better: "lower"},
	{name: "server.frame_hit_ratio", unit: "ratio", better: "higher"},
	{name: "process.start_ms", unit: "ms", better: "lower"},
	{name: "process.e2e_gap_share", unit: "share", better: "lower"},
	{name: "client.commit_p90_us", unit: "us", better: "lower"},
	{name: "client.commit_p99_us", unit: "us", better: "lower"},
	{name: "client.commit_max_us", unit: "us", better: "lower"},
	{name: "client.notify_p90_us", unit: "us", better: "lower"},
	{name: "client.notify_p99_us", unit: "us", better: "lower"},
	{name: "client.read_p90_us", unit: "us", better: "lower"},
	{name: "client.samples", unit: "count", better: "higher"},
	{name: "client.round_spread", unit: "share", better: "lower"},
	{name: "client.cpu_share", unit: "share", better: "lower"},
	{name: "env.steal_share", unit: "share", better: "lower"},
	{name: "host.slowdown", unit: "ratio", better: "lower"},
	{name: "trace.spans", unit: "count", better: "higher"},
	{name: "trace.unattributed_share", unit: "share", better: "lower"},
}

// perLayerValues runs the ladder, writes its trace and folds it, with
// the end-to-end run's client-side tails, into the per-layer metrics.
// A metric of a rung the workload does not have is 0.
func perLayerValues(s *stream, r *e2e, outDir string) (map[string]float64, []string, error) {
	l, err := runLadder(s)
	if err != nil {
		return nil, nil, err
	}
	if err := writeTrace(outDir, s.w.name, l.spans); err != nil {
		return nil, nil, err
	}
	lt := foldSpans(l.spans)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	self := func(name string) float64 { return float64(max(lt.self[name], 0)) }
	perUpdate := func(ns float64) float64 { return ns / float64(l.updates) }
	perCommit := func(ns float64) float64 { return ns / float64(l.batches) }

	var commits, notifies, reads []int64
	for _, smp := range r.rounds {
		commits = append(commits, smp.commitNS...)
		notifies = append(notifies, smp.notifyNS...)
		reads = append(reads, smp.readNS...)
	}
	sortInt64(commits)
	sortInt64(notifies)
	sortInt64(reads)
	e2e := endToEndValues(r)
	// The ladder's spans are read off the clock, so the gap to the
	// end-to-end commit is taken from the uncorrected one.
	e2eP50 := median(roundValues(r, "commit_p50_us", false))
	cpuShare, stealShare, notes := r.trust()

	v := map[string]float64{
		"notify_p50_us":                   e2e["notify_p50_us"],
		"read_p50_us":                     e2e["read_p50_us"],
		"reads_per_s":                     e2e["reads_per_s"],
		"stream.parse_ns_per_update":      perUpdate(float64(lt.total[spParse])),
		"stream.format_ns_per_update":     perUpdate(float64(lt.total[spFormat])),
		"dyndb.netdelta_ns_per_update":    perUpdate(float64(lt.total[spNetDelta])),
		"dyndb.apply_ns_per_update":       perUpdate(float64(lt.total[spApply])),
		"dyndb.survivor_ratio":            ratio(float64(l.survivors), float64(l.updates)),
		"core.maintain_ns_per_update":     perUpdate(float64(lt.total[spCore])),
		"ivm.maintain_ns_per_update":      perUpdate(float64(lt.total[spIVM])),
		"eval.recompute_ms":               r.recomputeMS,
		"workspace.commit_ns_per_update":  perUpdate(float64(lt.total[spWorkspace])),
		"workspace.self_ns_per_update":    perUpdate(self(spWorkspace)),
		"workspace.register_ms":           l.registerMS,
		"workspace.load_ms":               l.loadMS,
		"capture.ns_per_commit":           perCommit(self(spCapture)),
		"capture.delta_tuples_per_commit": perCommit(float64(l.deltaTuples)),
		"capture.result_tuples":           float64(l.resultTuples),
		"capture.useful_ratio":            ratio(perCommit(float64(l.deltaTuples)), float64(l.resultTuples)),
		"snapshot.advance_ns_per_commit":  perCommit(self(spSnapshot)),
		"snapshot.patched":                float64(l.snap.Patched),
		"snapshot.rebuilt":                float64(l.snap.Rebuilt),
		"snapshot.invalidated":            float64(l.snap.Invalidated),
		"snapshot.pin_hot_ns":             lt.p50(spPin),
		"snapshot.pin_cold_us":            l.pinColdUS,
		"snapshot.hit_ratio":              ratio(float64(l.snap.Hits), float64(l.snap.Hits+l.snap.Misses)),
		"server.commit_self_us":           perCommit(self(spServer)) / 1e3,
		"server.notify_gap_us":            percentileUS(l.notifyGapNS, 0.5),
		"server.dropped_frames":           float64(l.dropped),
		"server.resyncs":                  float64(l.resyncs),
		"server.enumerate_us":             lt.p50(spEnumerate) / 1e3,
		"server.count_us":                 lt.p50(spCount) / 1e3,
		"server.frame_hit_ratio":          ratio(float64(l.frames.Hits), float64(l.frames.Hits+l.frames.Misses)),
		"process.start_ms":                r.startMS,
		"process.e2e_gap_share":           ratio(e2eP50-lt.p50(spServer)/1e3, e2eP50),
		"client.commit_p90_us":            percentileUS(commits, 0.9),
		"client.commit_p99_us":            percentileUS(commits, 0.99),
		"client.commit_max_us":            percentileUS(commits, 1),
		"client.notify_p90_us":            percentileUS(notifies, 0.9),
		"client.notify_p99_us":            percentileUS(notifies, 0.99),
		"client.read_p90_us":              percentileUS(reads, 0.9),
		"client.samples":                  float64(len(commits)),
		"client.round_spread":             spread(roundValues(r, "commit_p50_us", true)),
		"client.cpu_share":                cpuShare,
		"env.steal_share":                 stealShare,
		"host.slowdown":                   r.slowdown(),
		"trace.spans":                     float64(len(l.spans)),
		"trace.unattributed_share":        ratio(self(spServer), float64(lt.total[spServer])),
	}

	covered, unattributed := lt.attribution(spServer)
	if top := lt.total[spServer]; top > 0 {
		if off := ratio(float64(covered+unattributed-top), float64(top)); off > 0.05 || off < -0.05 {
			notes = append(notes, fmt.Sprintf("noisy: span self times plus the unattributed remainder miss the top rung's time by %.1f%%", 100*off))
		}
	}
	return v, notes, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
)

const testScale = 0.02

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloads(testScale) {
		a, err := generate(w, 7)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _ := generate(w, 7)
		c, _ := generate(w, 8)
		if a.fingerprint != b.fingerprint || !bytes.Equal(bytes.Join(a.cycleWire, nil), bytes.Join(b.cycleWire, nil)) {
			t.Errorf("%s: the same seed generated different streams", w.name)
		}
		if a.fingerprint == c.fingerprint {
			t.Errorf("%s: seeds 7 and 8 share fingerprint %s", w.name, a.fingerprint)
		}
	}
}

// Every update changes the store (no duplicate inserts, no no-op
// deletes), no batch touches a tuple twice, the wire image parses back
// to the batch, and one full cycle restores the preloaded store.
func TestStreamIsWellFormed(t *testing.T) {
	for _, w := range workloads(testScale) {
		s, err := generate(w, 3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		db, err := s.preloadDB()
		if err != nil {
			t.Fatalf("%s: preload: %v", w.name, err)
		}
		if db.Cardinality() != len(s.preload) {
			t.Fatalf("%s: preload holds %d tuples from %d inserts", w.name, db.Cardinality(), len(s.preload))
		}
		start := db.Clone()
		for i := 0; i < len(s.cycleWire); i++ {
			batch := s.batchAt(i)
			if len(batch) != w.batch {
				t.Fatalf("%s: batch %d has %d updates, want %d", w.name, i, len(batch), w.batch)
			}
			if got := string(encodeBatch(batch)); got != string(s.cycleWire[i]) {
				t.Fatalf("%s: batch %d's wire image differs from its updates", w.name, i)
			}
			surv, err := db.NetDelta(batch)
			if err != nil || len(surv) != len(batch) {
				t.Fatalf("%s: batch %d nets %d of %d updates (err %v)", w.name, i, len(surv), len(batch), err)
			}
			for _, u := range batch {
				if changed, err := db.Apply(u); err != nil || !changed {
					t.Fatalf("%s: batch %d: %s did not change the store (err %v)", w.name, i, u, err)
				}
			}
		}
		if diff := firstDiff(storeSet(db), storeSet(start)); diff != "" {
			t.Errorf("%s: a full cycle did not restore the store: %s", w.name, diff)
		}
	}
}

func storeSet(db *dyndb.Database) map[uint64]struct{} {
	set := map[uint64]struct{}{}
	for i, rel := range db.Relations() {
		for _, tup := range db.Relation(rel).Tuples() {
			set[uint64(i)<<62|pack(tup)] = struct{}{}
		}
	}
	return set
}

// The three feed workloads share a store shape and differ in result size.
func TestFeedResultSizes(t *testing.T) {
	for name, share := range map[string]float64{"subscribe-small": 0.01, "read-mix": 0.1, "subscribe-large": 1} {
		w, _ := findWorkload(workloads(0.2), name)
		s, err := generate(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		db, _ := s.preloadDB()
		got := float64(eval.Count(cq.MustParse(qFeed), db))
		want := share * float64(db.Relation("E").Len())
		if got < want || got > 1.1*want+5 {
			t.Errorf("%s: result holds %.0f tuples, want about %.0f", name, got, want)
		}
	}
}

func TestPercentileMedianSpread(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for p, want := range map[float64]int64{0: 10, 0.5: 50, 0.9: 90, 0.99: 100, 1: 100} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(%v) = %d, want %d", p, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing must be 0")
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Quartiles of 1..5 are 2 and 4 around a median of 3.
	if got := spread([]float64{1, 2, 3, 4, 5}); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("spread = %v, want 2/3", got)
	}
}

// A round's timings are divided by the host's slowdown around it and its
// rates multiplied: the same work on a host half as fast reads the same.
func TestRoundsAreCorrectedForTheHost(t *testing.T) {
	round := func(slow float64) sample {
		d := time.Duration(slow * float64(time.Second))
		return sample{wall: d, updates: 1000, cpu: 0.5 * slow, slow: slow, commitNS: []int64{int64(100e3 * slow)}}
	}
	r := &e2e{rounds: []sample{round(1), round(2), round(1.5)}}
	for name, want := range map[string]float64{"updates_per_s": 1000, "commit_p50_us": 100, "server_cpu_us_per_update": 500} {
		for i, got := range roundValues(r, name, true) {
			if math.Abs(got-want) > 1e-6*want {
				t.Errorf("round %d: corrected %s = %v, want %v", i, name, got, want)
			}
		}
	}
	if raw := roundValues(r, "commit_p50_us", false); raw[1] != 200 {
		t.Errorf("uncorrected commit_p50_us of the slow round = %v, want 200", raw[1])
	}
	if got := endToEndValues(r)["updates_per_s"]; math.Abs(got-1000) > 1e-3 {
		t.Errorf("updates_per_s = %v, want 1000", got)
	}
}

// -repeat's verdicts: within the bound is ok, beyond it a disagreement.
func TestCompareRuns(t *testing.T) {
	defs := []metricDef{{"commit_p50_us", "us", "lower", 0.10}}
	run := func(commit float64) [][]*report {
		return [][]*report{
			{{workload: "w", defs: defs, values: map[string]float64{"commit_p50_us": 100}}},
			{{workload: "w", defs: defs, values: map[string]float64{"commit_p50_us": commit}}},
		}
	}
	for _, c := range []struct {
		commit  float64
		verdict string
		ok      bool
	}{{105, " ok", true}, {120, "DISAGREE", false}} {
		var out bytes.Buffer
		if ok := compareRuns(&out, run(c.commit)); ok != c.ok || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("100 vs %v: ok=%v, printed %q; want ok=%v and %q", c.commit, ok, out.String(), c.ok, c.verdict)
		}
	}
}

// A hand-built trace of two batches: self time is a span's duration
// minus its children's, and the top rung splits into covered and
// unattributed time without remainder.
func TestSelfTimeArithmetic(t *testing.T) {
	var spans []span
	for req := 0; req < 2; req++ {
		spans = append(spans,
			span{name: spServer, req: req, start: 0, end: 100},
			span{name: spParse, parent: spServer, req: req, start: 0, end: 10},
			span{name: spWorkspace, parent: spServer, req: req, start: 0, end: 60},
			span{name: spNetDelta, parent: spWorkspace, req: req, start: 0, end: 15},
			span{name: spCore, parent: spWorkspace, req: req, start: 0, end: 25},
			span{name: spCount, req: req, start: 0, end: 7}, // a read: its own root, outside the commit tree
		)
	}
	lt := foldSpans(spans)
	for name, want := range map[string]int64{spServer: 60, spParse: 20, spWorkspace: 40, spNetDelta: 30, spCore: 50, spCount: 14} {
		if lt.self[name] != want {
			t.Errorf("self[%s] = %d, want %d", name, lt.self[name], want)
		}
	}
	covered, unattributed := lt.attribution(spServer)
	if covered != 140 || unattributed != 60 || covered+unattributed != lt.total[spServer] {
		t.Errorf("covered %d + unattributed %d, want 140 + 60 = top %d", covered, unattributed, lt.total[spServer])
	}
	if got := lt.p50(spParse); got != 10 {
		t.Errorf("p50(parse) = %v, want 10", got)
	}
}

// BENCHMARK.json is the contract; the tables in the code must say the same.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads(1)
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

var serverBin string // built once by TestMain

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dyncq-benchmark-test")
	if err == nil {
		serverBin, err = buildServer(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smokeConfig() config {
	return config{serverBin: serverBin, rounds: 2, round: 150 * time.Millisecond, setups: 1}
}

// All five workloads, end to end against a spawned server and through
// the traced ladder, at a fiftieth of their size: nothing may fail and
// every metric must be reported.
func TestSmokeAllWorkloads(t *testing.T) {
	// Each workload loads its own layers and no others.
	zero := map[string][]string{
		"ingest-core":     {"ivm.maintain_ns_per_update", "capture.ns_per_commit", "snapshot.advance_ns_per_commit"},
		"ingest-ivm":      {"core.maintain_ns_per_update", "capture.ns_per_commit", "snapshot.advance_ns_per_commit"},
		"subscribe-small": {"ivm.maintain_ns_per_update", "snapshot.hit_ratio", "server.frame_hit_ratio"},
		"subscribe-large": {"ivm.maintain_ns_per_update", "snapshot.hit_ratio", "server.frame_hit_ratio"},
		"read-mix":        {"ivm.maintain_ns_per_update", "capture.ns_per_commit"},
	}
	for _, w := range workloads(testScale) {
		s, err := generate(w, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		res, err := runE2E(smokeConfig(), s)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: failed %d of %d: %v", w.name, res.failed, res.attempted, res.failures)
		}
		values := endToEndValues(res)
		for _, d := range append(append([]metricDef(nil), endToEnd...), secondConn...) {
			if v, ok := values[d.name]; measures(w, d.name) && (!ok || !(v > 0) || math.IsInf(v, 0)) {
				t.Errorf("%s: end-to-end metric %s is %v; it must be positive", w.name, d.name, v)
			}
		}
		dir := t.TempDir()
		layers, _, err := perLayerValues(s, res, dir)
		if err != nil {
			t.Fatalf("%s: traced run: %v", w.name, err)
		}
		for _, d := range perLayer {
			if v, ok := layers[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s missing or not a number (%v)", w.name, d.name, v)
			}
		}
		for _, name := range zero[w.name] {
			if layers[name] != 0 {
				t.Errorf("%s: %s = %v, want 0", w.name, name, layers[name])
			}
		}
		if fi, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no trace file written (%v)", w.name, err)
		}
	}
}

// Dropping one delta from the subscriber's mirror must fail the run.
func TestCorruptedMirrorFailsTheRun(t *testing.T) {
	cfg := smokeConfig()
	cfg.corruptDelta = 3
	w, _ := findWorkload(workloads(testScale), "subscribe-large")
	rep, err := runWorkload(cfg, w, 1, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Fatalf("a corrupted mirror went unnoticed: %d of %d failed", rep.failed, rep.attempted)
	}
	if !strings.Contains(strings.Join(rep.failures, "\n"), "subscriber") {
		t.Errorf("failures do not name the subscriber: %v", rep.failures)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// span is one timed call into a layer. Spans of one batch share req; a
// span's parent is named, and unique, within its req. The ladder's
// rungs run one after another on states kept in lockstep, so a parent
// is the rung above replaying the same batch, not an enclosing
// interval: self time is a span's duration minus its children's
// durations.
type span struct {
	name       string
	parent     string // "" for a root
	req        int    // batch number
	start, end int64  // ns since the trace began
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// time records fn as a span and returns its duration.
func (t *tracer) time(name, parent string, req int, fn func()) int64 {
	start := t.now()
	fn()
	end := t.now()
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: start, end: end})
	return end - start
}

// layerTimes is the trace folded per span name.
type layerTimes struct {
	total map[string]int64 // summed durations
	self  map[string]int64 // total minus the children's totals; negative when noise made a lower rung slower than the one above
	durs  map[string][]int64
	under map[string]bool // names that have a parent: the spans beneath a top span
}

func foldSpans(spans []span) layerTimes {
	lt := layerTimes{total: map[string]int64{}, self: map[string]int64{}, durs: map[string][]int64{}, under: map[string]bool{}}
	for _, s := range spans {
		d := s.end - s.start
		lt.total[s.name] += d
		lt.self[s.name] += d
		lt.durs[s.name] = append(lt.durs[s.name], d)
		if s.parent != "" {
			lt.self[s.parent] -= d
			lt.under[s.name] = true
		}
	}
	return lt
}

// p50 is the median duration of the spans called name.
func (lt layerTimes) p50(name string) float64 {
	return float64(percentile(sortInt64(append([]int64(nil), lt.durs[name]...)), 0.5))
}

// attribution splits the top span's total into the self times of the
// spans beneath it (negative ones clamped to zero) and the remainder no
// lower span covers. covered+unattributed equals the top total exactly
// when no self time was clamped.
func (lt layerTimes) attribution(top string) (covered, unattributed int64) {
	for name := range lt.under {
		covered += max(lt.self[name], 0)
	}
	return covered, max(lt.self[top], 0)
}

// writeTrace writes one JSON object per span to dir/trace-<workload>.jsonl.
func writeTrace(dir, workload string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	type line struct {
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Parent  string `json:"parent"`
		Req     string `json:"req"`
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(line{s.name, s.start, s.end, s.parent, workload + "/" + strconv.Itoa(s.req)}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

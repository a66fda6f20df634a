// Command benchmark is dyncq's one named benchmark. End-to-end numbers
// come from a separately started `dyncq serve` process driven over
// loopback TCP; per-layer numbers come from a separate traced run that
// replays the same generated batches through a ladder of the layers'
// public entry points. See README.md in this directory for the metric
// and workload definitions and how they interact.
//
//	go run ./benchmark                                  # every workload, end to end
//	go run ./benchmark -workload read-mix -trace 1      # one workload, per-layer
//	go run ./benchmark -repeat 2                        # steadiness check against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef mirrors one entry of BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the median a change may worsen it by
}

// endToEnd is BENCHMARK.json's end_to_end list: the metrics every
// workload has, which is what the result line of a -trace 0 run holds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"updates_per_s", "1/s", "higher", 0.25},
	{"commit_p50_us", "us", "lower", 0.25},
	{"server_cpu_us_per_update", "us", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.20},
}

// secondConn are the end-to-end metrics of the second connection. Each
// exists only on the workloads whose rounds run that role, so they are
// printed and compared by -repeat there, and BENCHMARK.json, which wants
// every end_to_end metric on every workload, lists them under per_layer.
var secondConn = []metricDef{
	{"notify_p50_us", "us", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"reads_per_s", "1/s", "higher", 0.25},
}

// measures reports whether workload w has the metric called name.
func measures(w workload, name string) bool {
	switch name {
	case "notify_p50_us":
		return w.subscribe
	case "read_p50_us", "reads_per_s", "snapshot.hit_ratio", "server.frame_hit_ratio":
		return w.poll
	}
	return true
}

// report is one workload's printed result.
type report struct {
	workload    string
	fingerprint string
	attempted   int
	failed      int
	failures    []string
	line        []metricDef        // the result line's metrics: endToEnd or perLayer; one the workload lacks is 0 there
	defs        []metricDef        // the metrics the workload has, in printing order
	values      map[string]float64 // by metric name
	slowdown    float64            // the host's median slowdown over the rounds
	notes       []string
}

// perRound are the end-to-end metrics every round measures, as read off
// the clock.
var perRound = map[string]func(sample) float64{
	"updates_per_s":            sample.updatesPerS,
	"commit_p50_us":            sample.commitP50US,
	"server_cpu_us_per_update": sample.cpuPerUpdateUS,
	"notify_p50_us":            sample.notifyP50US,
	"read_p50_us":              sample.readP50US,
	"reads_per_s":              sample.readsPerS,
}

// roundValues returns a per-round metric's value in every round. With
// corrected set, each is brought to the reference host's speed: a time
// is divided by the slowdown the host probe saw around its round, a rate
// multiplied by it.
func roundValues(r *e2e, name string, corrected bool) []float64 {
	vs := make([]float64, len(r.rounds))
	for i, s := range r.rounds {
		vs[i] = perRound[name](s)
		if corrected && strings.HasSuffix(name, "_per_s") {
			vs[i] *= s.slow
		} else if corrected {
			vs[i] /= s.slow
		}
	}
	return vs
}

// endToEndValues folds a run into the end-to-end metrics: a timing is
// the median of its per-round values, each corrected for the host's
// speed around its round; setup_s is the median over the set-ups,
// corrected the same way; memory is one sample after the rounds.
func endToEndValues(r *e2e) map[string]float64 {
	values := map[string]float64{
		"setup_s":       median(r.setupS),
		"server_rss_mb": r.rssMB,
	}
	for name := range perRound {
		values[name] = median(roundValues(r, name, true))
	}
	return values
}

// runWorkload generates, measures and checks one workload.
func runWorkload(cfg config, w workload, seed int64, trace bool, outDir string) (*report, error) {
	s, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	res, err := runE2E(cfg, s)
	if err != nil {
		return nil, err
	}
	rep := &report{workload: w.name, fingerprint: s.fingerprint, attempted: res.attempted, failed: res.failed,
		failures: res.failures, slowdown: res.slowdown()}
	all := perLayer
	if trace {
		rep.line = perLayer
		if rep.values, rep.notes, err = perLayerValues(s, res, outDir); err != nil {
			return nil, err
		}
	} else {
		rep.line, all = endToEnd, append(append([]metricDef(nil), endToEnd...), secondConn...)
		rep.values = endToEndValues(res)
		_, _, rep.notes = res.trust()
	}
	for _, d := range all {
		if !measures(w, d.name) {
			delete(rep.values, d.name)
			continue
		}
		rep.defs = append(rep.defs, d)
	}
	return rep, nil
}

func (r *report) print(out io.Writer) {
	for _, d := range r.defs {
		fmt.Fprintf(out, "%s %s %.6g %s\n", r.workload, d.name, r.values[d.name], d.unit)
	}
	fmt.Fprintf(out, "%s failed_share %.6g share\n", r.workload, float64(r.failed)/float64(max(r.attempted, 1)))
	if _, listed := r.values["host.slowdown"]; !listed { // the traced run lists it with the layers
		fmt.Fprintf(out, "%s host_slowdown %.6g ratio\n", r.workload, r.slowdown)
	}
	fmt.Fprintf(out, "%s fingerprint %s hash\n", r.workload, r.fingerprint)
	for _, n := range r.notes {
		fmt.Fprintf(out, "%s note %s\n", r.workload, n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(out, "%s FAILED %s\n", r.workload, f)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the machine-readable last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func printEnv(out io.Writer) {
	total, steal := cpuTimes()
	fmt.Fprintf(out, "env nproc %d count\n", runtime.NumCPU())
	fmt.Fprintf(out, "env gomaxprocs %d count\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "env go %s version\n", runtime.Version())
	fmt.Fprintf(out, "env loadavg %s 1/5/15min\n", loadAverage())
	fmt.Fprintf(out, "env steal_since_boot %.4g share\n", steal/math.Max(total, 1))
}

// buildServer compiles ./cmd/dyncq into dir and returns the binary's path.
func buildServer(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "dyncq"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "dyncq/cmd/dyncq")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build dyncq/cmd/dyncq: %v\n%s", err, out)
	}
	return bin, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all five)")
	seed := fs.Int64("seed", 1, "generator seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "timed seconds per workload, split evenly over the rounds")
	rounds := fs.Int("rounds", 0, "timed rounds (default: four per second); a reported timing is the median of the per-round values, each corrected for the host's speed")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run and writes trace-<workload>.jsonl; 0 reports the end-to-end metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "benchmark"), "directory for the server binary and trace files")
	repeat := fs.Int("repeat", 1, "run the whole set this many times back to back and fail if a pair of runs disagrees beyond a metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rounds == 0 {
		*rounds = max(int(4**seconds), 1)
	}
	if *rounds < 1 || *seconds <= 0 || *repeat < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -rounds, -seconds and -repeat must be positive and there are no positional arguments")
		return 2
	}
	all := workloads(1)
	if *name != "" {
		w, ok := findWorkload(all, *name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		all = []workload{w}
	}
	bin, err := buildServer(*outDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	cfg := config{
		serverBin: bin,
		rounds:    *rounds,
		round:     time.Duration(*seconds / float64(*rounds) * float64(time.Second)),
		setups:    5,
	}
	if *trace == 1 {
		cfg.setups = 1 // the traced run reports process.start_ms, not setup_s
	}

	// From here on (the build may use every CPU) one scheduler thread on
	// one CPU, for this process and the servers it starts.
	runtime.GOMAXPROCS(1)
	if cpu, err := pinToOneCPU(); err != nil {
		fmt.Fprintf(stdout, "env note noisy: not pinned to one CPU: %v\n", err)
	} else {
		fmt.Fprintf(stdout, "env pinned_cpu %d index\n", cpu)
	}
	printEnv(stdout)
	line := resultLine{Correct: true, Metrics: map[string]jsonMetric{}}
	runs := make([][]*report, *repeat)
	for i := range runs {
		for _, w := range all {
			rep, err := runWorkload(cfg, w, *seed, *trace == 1, *outDir)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			rep.print(stdout)
			runs[i] = append(runs[i], rep)
			line.Correct = line.Correct && rep.failed == 0
			line.Attempted += rep.attempted
			line.Failed += rep.failed
			for _, d := range rep.line {
				key := d.name
				if len(all) > 1 {
					key = w.name + "." + d.name
				}
				line.Metrics[key] = jsonMetric{rep.values[d.name], d.unit}
			}
		}
	}
	agree := *trace == 1 || compareRuns(stdout, runs)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !line.Correct || !agree {
		return 1
	}
	return 0
}

// compareRuns prints, per end-to-end metric and workload, each pair of
// consecutive runs with their relative difference and the bound, and
// reports whether every pair agrees within it.
func compareRuns(out io.Writer, runs [][]*report) bool {
	ok := true
	for i := 1; i < len(runs); i++ {
		for j, b := range runs[i] {
			a := runs[i-1][j]
			for _, d := range b.defs {
				x, y := a.values[d.name], b.values[d.name]
				diff := math.Abs(x-y) / math.Max(math.Min(math.Abs(x), math.Abs(y)), math.SmallestNonzeroFloat64)
				verdict := "ok"
				if diff > d.bound {
					verdict, ok = "DISAGREE", false
				}
				fmt.Fprintf(out, "repeat %s %s %.6g %.6g %s diff %.3f bound %.2f %s\n", b.workload, d.name, x, y, d.unit, diff, d.bound, verdict)
			}
		}
	}
	return ok
}

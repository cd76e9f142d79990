// Command perfbench is the repository benchmark: it drives a real
// indoorqd daemon over loopback HTTP for the end-to-end metrics, and
// replays the same seeded script in-process with spans around each
// layer's calls for the per-layer metrics. See README.md for the
// workloads, the metrics and how the bounds were set.
//
// Run it from the checkout root through run.sh, which builds the daemon
// and this program first:
//
//	bash perfbench/run.sh --workload city-read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A human-readable report (every
// metric with its unit and sample count, the p99s, generator lateness
// and host facts) goes to standard error. Any wrong answer, and a run
// whose open-loop generator fell behind, exits non-zero without a
// result line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric the benchmark publishes (BENCHMARK.json lists
// the same names).
type metricDef struct{ name, unit string }

// endToEnd are measured untraced against the daemon; every workload
// reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"range_p50_ms", "ms"},
	{"knn_p50_ms", "ms"},
	{"sat_ops_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer come from the traced in-process replay. A layer the workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"wire.req_decode_us", "us"},
	{"wire.resp_encode_us", "us"},
	{"wire.resp_bytes", "bytes"},
	{"server.self_ms", "ms"},
	{"server.coalesce_batch", "count"},
	{"server.refused", "count"},
	{"serve.batch_ms", "ms"},
	{"query.range.filter_ms", "ms"},
	{"query.range.subgraph_ms", "ms"},
	{"query.range.prune_ms", "ms"},
	{"query.range.refine_ms", "ms"},
	{"query.knn.filter_ms", "ms"},
	{"query.knn.subgraph_ms", "ms"},
	{"query.knn.prune_ms", "ms"},
	{"query.knn.refine_ms", "ms"},
	{"query.candidates", "count"},
	{"query.units", "count"},
	{"query.refined", "count"},
	{"query.full_fallbacks", "count"},
	{"query.refine_share", "ratio"},
	{"pipeline.apply_ms", "ms"},
	{"index.build_s", "s"},
	{"reconcile.batch_ms", "ms"},
	{"reconcile.routed_pairs_per_update", "count"},
	{"reconcile.events_per_batch", "count"},
	{"store.decode_s", "s"},
	{"store.recover_s", "s"},
	{"store.wal_bytes_per_update", "bytes"},
	{"store.sync_ms", "ms"},
	{"history.asof_cold_ms", "ms"},
	{"history.asof_advance_ms", "ms"},
	{"history.view_hit_ms", "ms"},
	{"history.scan_ms_per_krecord", "ms"},
	{"history.materializations", "count"},
	{"history.advances", "count"},
	{"history.view_hits", "count"},
	{"history.replayed_records", "count"},
	{"history.scanned_records", "count"},
	{"trace.request_ms", "ms"},
	{"trace.untraced_request_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// env is one invocation's settings and places.
type env struct {
	root, daemonBin string
	cache, work     string
	srcHash         string
	seed            int64
	seconds         int
	trace           bool
	conns           int // connection budget, event stream included
	steal0          cpuTimes
	started         time.Time
	spansPath       string
}

// entry is one reported number.
type entry struct {
	name, unit string
	value      float64
	n          int // samples behind the value; 0 when not a sample statistic
}

// report collects a run's outcome.
type report struct {
	metrics   map[string]entry
	info      []entry // printed for information, never gated
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]entry{}} }

func (r *report) set(name string, v float64, n int) {
	r.metrics[name] = entry{name: name, value: v, n: n}
}

func (r *report) note(name, unit string, v float64, n int) {
	r.info = append(r.info, entry{name: name, unit: unit, value: v, n: n})
}

var workloads = map[string]func(*env) (*report, error){
	"city-read":  runCityRead,
	"city-churn": runCityChurn,
	"history":    runHistory,
}

func main() {
	var (
		workload = flag.String("workload", "", "city-read, city-churn or history")
		seed     = flag.Int64("seed", 1, "workload seed: store contents, schedules and scripts")
		seconds  = flag.Int("seconds", 10, "length of the timed phases")
		trace    = flag.Int("trace", 0, "1 runs the traced in-process replay and reports per-layer metrics")
		root     = flag.String("root", ".", "checkout root")
		bin      = flag.String("daemon", "", "indoorqd binary built from the checkout")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *root, *bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, root, bin string) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("indoorqd binary: %w", err)
	}
	e := &env{
		root: root, daemonBin: bin, seed: seed, seconds: seconds, trace: trace == 1,
		conns:   runtime.NumCPU(),
		cache:   filepath.Join(root, ".bench_build", "fixtures"),
		started: time.Now(),
	}
	if e.srcHash, err = sourceHash(root); err != nil {
		return fmt.Errorf("hash sources: %w", err)
	}
	e.spansPath = filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-s%d.json", workload, seed))
	work := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	removeStale(work)
	if e.work, err = os.MkdirTemp(work, workload+"-"); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)
	if e.steal0, err = readCPUTimes(); err != nil {
		return err
	}
	rep, err := fn(e)
	if err != nil {
		return err
	}
	want := endToEnd
	if e.trace {
		want = perLayer
		for _, m := range perLayer {
			if _, ok := rep.metrics[m.name]; !ok {
				rep.set(m.name, 0, 0)
			}
		}
	}
	steal1, err := readCPUTimes()
	if err != nil {
		return err
	}
	printReport(os.Stderr, workload, e, rep, want, steal1.stealSince(e.steal0))

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]map[string]any{}}
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", workload, m.name)
		}
		out.Metrics[m.name] = map[string]any{"value": v.value, "unit": m.unit}
	}
	if len(rep.metrics) != len(want) {
		return fmt.Errorf("workload %s reported %d metrics, want %d", workload, len(rep.metrics), len(want))
	}
	if rep.attempted < 1 {
		return errors.New("no operations attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// removeStale deletes work directories a killed run left behind (store
// copies of up to a few hundred MB each). A run never lasts an hour.
func removeStale(work string) {
	ents, err := os.ReadDir(work)
	if err != nil {
		return
	}
	for _, e := range ents {
		if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > time.Hour {
			_ = os.RemoveAll(filepath.Join(work, e.Name()))
		}
	}
}

func printReport(w *os.File, workload string, e *env, rep *report, want []metricDef, steal float64) {
	mode := "untraced, against indoorqd"
	if e.trace {
		mode = "traced, in-process replay"
	}
	fmt.Fprintf(w, "\n== perfbench %s seed=%d seconds=%d (%s)\n", workload, e.seed, e.seconds, mode)
	for _, m := range want {
		v := rep.metrics[m.name]
		fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", m.name, v.value, m.unit, v.n)
	}
	info := append([]entry(nil), rep.info...)
	sort.SliceStable(info, func(i, j int) bool { return info[i].name < info[j].name })
	fmt.Fprintln(w, "  -- for information (not gated)")
	for _, v := range info {
		fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", v.name, v.value, v.unit, v.n)
	}
	errFrac := 0.0
	if rep.attempted > 0 {
		errFrac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", "error_frac", errFrac, "ratio", rep.attempted)
	fmt.Fprintf(w, "  -- host: %s\n", strings.Join(hostFacts(e, steal), ", "))
}

func hostFacts(e *env, steal float64) []string {
	return []string{
		"commit=" + commitOf(e.root),
		"sources=" + e.srcHash[:12],
		"go=" + runtime.Version(),
		fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		"cpu=" + cpuModel(),
		fmt.Sprintf("host.steal_frac=%.4f", steal),
		fmt.Sprintf("wall_s=%.1f", time.Since(e.started).Seconds()),
	}
}

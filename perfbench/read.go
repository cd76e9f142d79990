package main

// city-read: the read path alone on the largest index. Three phases run
// against one daemon: an open loop at a fixed rate (phase A) and a
// closed loop over nproc connections (phase B), both reported for
// information, then a closed loop over one connection (phase C), which
// gives the gated latency p50s and throughput. With one request in
// flight no two queries contend for the host's few cores and a core is
// left for the generator and the neighbours, so phase C repeats within
// a few percent where A and B spread by up to a third on a shared
// 2-vCPU host (see README.md).

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	indoorq "repro"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/wire"
)

const (
	// readRate is phase A's offered load: about a quarter of the closed
	// loop capacity of a 2-vCPU host (≈190 ops/s).
	readRate = 50
	// readMultiPerSecond sizes phase B: operations per configured second.
	readMultiPerSecond = 50
	// readLatPerSecond sizes phase C: operations per configured second,
	// 600 per kind at 8 s, as query cost varies widely from point to
	// point.
	readLatPerSecond = 150
	// setups is how many times a run starts the daemon; setup_s is the
	// median.
	setups    = 3
	warmupOps = 40
)

func citySpec() spec { return spec{City: bench.CityDefault()} }

// startSetups starts the daemon setups times, each on a fresh copy of the
// fixture store, and keeps the last one running. It returns the setup
// times in seconds.
func startSetups(e *env, fx *fixture) (*daemon, []float64, error) {
	var times []float64
	for i := 0; i < setups; i++ {
		dir := filepath.Join(e.work, fmt.Sprintf("daemon-%d", i))
		if err := copyStore(fx.storeDir(), dir); err != nil {
			return nil, nil, err
		}
		d, setup, err := startDaemon(e.daemonBin, dir, dir+".log")
		if err != nil {
			return nil, nil, err
		}
		times = append(times, setup.Seconds())
		if i == setups-1 {
			return d, times, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, fmt.Errorf("stop indoorqd: %w", err)
		}
	}
	panic("unreachable")
}

// sample keeps one request in every n for the correctness check.
func sample(n int) func(int) bool { return func(i int) bool { return i%n == 0 } }

// lateness notes the open-loop lateness (send minus due time) and
// refuses a run whose generator itself fell behind its schedule: then
// the load offered was not the scheduled one. A request that waits for a
// busy connection is the system falling behind, not the generator, and
// its latency (timed from the due time) already carries the wait.
func lateness(rep *report, res []result) error {
	var late, disp []float64
	for _, r := range res {
		late = append(late, ms(r.late))
		disp = append(disp, ms(r.dispatchLate))
	}
	rep.note("gen.late_p50_ms", "ms", median(late), len(late))
	rep.note("gen.late_p99_ms", "ms", percentile(late, 99), len(late))
	p99 := percentile(disp, 99)
	rep.note("gen.dispatch_late_p99_ms", "ms", p99, len(disp))
	if p99 > maxDispatchLateMs {
		return fmt.Errorf("invalid run: the open-loop generator fell behind its schedule (dispatch lateness p99 %.1f ms > %d ms)", p99, maxDispatchLateMs)
	}
	return nil
}

// maxDispatchLateMs is the generator's own lateness beyond which the
// offered load was no longer the scheduled one.
const maxDispatchLateMs = 100

// latencies notes p50 and p99 of each op kind present, returning p50s.
func latencies(rep *report, prefix string, lat [numKinds][]float64) {
	for k, xs := range lat {
		if len(xs) == 0 {
			continue
		}
		name := prefix + opKind(k).String()
		rep.note(name+"_p50_ms", "ms", median(xs), len(xs))
		rep.note(name+"_p99_ms", "ms", percentile(xs, 99), len(xs))
	}
}

func runCityRead(e *env) (*report, error) {
	fx, err := loadFixture(e.cache, "city-read", citySpec(), e.seed, e.srcHash)
	if err != nil {
		return nil, err
	}
	opsA, opsB, opsC := readScripts(e.seed, e.seconds, len(fx.meta.Points))
	if e.trace {
		return traceRead(e, fx, opsA)
	}
	reqsA, err := encodeAll(opsA, fx.meta.Points, nil)
	if err != nil {
		return nil, err
	}
	reqsB, err := encodeAll(opsB, fx.meta.Points, nil)
	if err != nil {
		return nil, err
	}
	reqsC, err := encodeAll(opsC, fx.meta.Points, nil)
	if err != nil {
		return nil, err
	}
	warm, err := encodeAll(readMix(rngFor(e.seed, "read-warmup"), warmupOps, len(fx.meta.Points)), fx.meta.Points, nil)
	if err != nil {
		return nil, err
	}

	rep := newReport()
	d, setupTimes, err := startSetups(e, fx)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	l := newLoader(d.base, e.conns)
	defer l.close()
	l.closed(warm, e.conns, sample(len(warm)+1))

	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	resA := l.open(reqsA, opsA, e.conns, sample(8))
	resB, wallB := l.closed(reqsB, e.conns, sample(16))
	resC, wallC := l.closed(reqsC, 1, sample(16))
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop indoorqd: %w", err)
	}

	latC := byKind(opsC, resC)
	total := len(opsA) + len(opsB) + len(opsC)
	rep.set("setup_s", median(setupTimes), len(setupTimes))
	rep.set("range_p50_ms", median(latC[kRange]), len(latC[kRange]))
	rep.set("knn_p50_ms", median(latC[kKNN]), len(latC[kKNN]))
	rep.set("sat_ops_s", float64(len(opsC))/wallC.Seconds(), len(opsC))
	rep.set("cpu_ms_per_op", (cpu1-cpu0)*1000/float64(total), total)
	rep.set("rss_peak_mb", rss, 1)
	latencies(rep, "a.", byKind(opsA, resA))
	latencies(rep, "b.", byKind(opsB, resB))
	latencies(rep, "c.", latC)
	rep.note("b.ops_s", "1/s", float64(len(opsB))/wallB.Seconds(), len(opsB))
	rep.attempted = total
	rep.failed = countFailed(resA) + countFailed(resB) + countFailed(resC)
	if err := lateness(rep, resA); err != nil {
		return nil, err
	}
	noteCoalescing(rep, resA)

	// Correctness: the sampled daemon answers against an in-process DB
	// recovered from a fresh copy of the same store.
	checkStart := time.Now()
	var checks []answer
	checks = appendAnswers(checks, opsA, resA)
	checks = appendAnswers(checks, opsB, resB)
	checks = appendAnswers(checks, opsC, resC)
	dir := filepath.Join(e.work, "check")
	if err := copyStore(fx.storeDir(), dir); err != nil {
		return nil, err
	}
	db, err := indoorq.OpenDir(dir, indoorq.DurabilityOptions{})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := checkAnswers(db, fx.meta.Points, checks); err != nil {
		return nil, err
	}
	oracleStart := time.Now()
	if err := oracleSpotCheck(db, fx.meta.Points, checks); err != nil {
		return nil, err
	}
	rep.note("checked_answers", "count", float64(len(checks)), len(checks))
	rep.note("wall.check_s", "s", time.Since(checkStart).Seconds(), 0)
	rep.note("wall.oracle_s", "s", time.Since(oracleStart).Seconds(), 0)
	return rep, nil
}

// readScripts returns phase A (Poisson open loop at readRate for the run
// length) and phases B and C (closed loops, fixed counts).
func readScripts(seed int64, seconds, points int) (a, b, c []op) {
	rngA := rngFor(seed, "read-a")
	a = readMix(rngA, readRate*seconds, points)
	poisson(rngA, a, readRate)
	b = readMix(rngFor(seed, "read-b"), readMultiPerSecond*seconds, points)
	c = readMix(rngFor(seed, "read-c"), readLatPerSecond*seconds, points)
	return a, b, c
}

// answer is one sampled daemon reply to a read.
type answer struct {
	o       op
	results []wire.Result
}

// appendAnswers decodes the sampled bodies of successful reads.
func appendAnswers(dst []answer, ops []op, res []result) []answer {
	for i, r := range res {
		if r.body == nil || r.failed {
			continue
		}
		var br wire.BatchResponse
		if json.Unmarshal(r.body, &br) != nil || len(br.Responses) != 1 {
			dst = append(dst, answer{o: ops[i]}) // an undecodable reply never matches
			continue
		}
		dst = append(dst, answer{o: ops[i], results: br.Responses[0].Results})
	}
	return dst
}

// checkAnswers re-runs every sampled read in-process and demands the
// identical answer: same ids in the same order, same distances.
func checkAnswers(db *indoorq.DB, points []wire.Position, checks []answer) error {
	for _, c := range checks {
		q := points[c.o.Point].Domain()
		var (
			want []indoorq.Result
			err  error
		)
		if c.o.Kind == kKNN {
			want, _, err = db.KNNQuery(q, queryK)
		} else {
			want, _, err = db.RangeQuery(q, queryRadius)
		}
		if err != nil {
			return fmt.Errorf("in-process %s at %v: %w", c.o.Kind, q, err)
		}
		if !sameResults(wire.ResultsOf(want), c.results) {
			return fmt.Errorf("correctness: daemon %s answer at %v differs from the in-process DB (%d vs %d results)",
				c.o.Kind, q, len(c.results), len(want))
		}
	}
	return nil
}

func sameResults(a, b []wire.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || (a[i].Dist == nil) != (b[i].Dist == nil) {
			return false
		}
		if a[i].Dist != nil && *a[i].Dist != *b[i].Dist {
			return false
		}
	}
	return true
}

// oracleSpotCheck compares the first sampled range and kNN answers with
// the exhaustive baseline.Oracle: the range id set must match exactly,
// and every kNN answer must lie within the oracle's k-th distance.
func oracleSpotCheck(db *indoorq.DB, points []wire.Position, checks []answer) error {
	or := baseline.NewOracle(db.Index())
	done := map[opKind]bool{}
	for _, c := range checks {
		if done[c.o.Kind] {
			continue
		}
		done[c.o.Kind] = true
		q := points[c.o.Point].Domain()
		if c.o.Kind == kRange {
			want, err := or.Range(q, queryRadius)
			if err != nil {
				return err
			}
			got := make([]int64, len(c.results))
			for i, r := range c.results {
				got[i] = r.ID
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(want) {
				return fmt.Errorf("correctness: range at %v has %d results, oracle %d", q, len(got), len(want))
			}
			for i := range got {
				if got[i] != int64(want[i]) {
					return fmt.Errorf("correctness: range at %v disagrees with the oracle", q)
				}
			}
			continue
		}
		all, err := or.AllDistances(q)
		if err != nil {
			return err
		}
		if want := min(queryK, len(all)); want != len(c.results) {
			return fmt.Errorf("correctness: kNN at %v has %d results, oracle %d", q, len(c.results), want)
		}
		kth := all[len(c.results)-1].D
		dist := make(map[int64]float64, len(all))
		for _, od := range all {
			dist[int64(od.ID)] = od.D
		}
		for _, r := range c.results {
			if d, ok := dist[r.ID]; !ok || d > kth+1e-9*(1+kth) {
				return fmt.Errorf("correctness: kNN at %v returned object %d beyond the oracle's k-th distance", q, r.ID)
			}
		}
	}
	return nil
}

// noteCoalescing reports the mean coalesced batch size the daemon saw
// under the open loop (from the sampled replies' batch metrics).
func noteCoalescing(rep *report, res []result) {
	var sizes []float64
	for _, r := range res {
		var br wire.BatchResponse
		if r.body != nil && json.Unmarshal(r.body, &br) == nil {
			sizes = append(sizes, float64(br.Metrics.Queries))
		}
	}
	if len(sizes) > 0 {
		rep.note("a.coalesced_batch_mean", "count", mean(sizes), len(sizes))
	}
}

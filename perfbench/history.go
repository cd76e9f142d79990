package main

// history: time travel over a pre-written log. One connection runs a
// fixed, seeded, count-based script, so the provider's cold/warm mix is
// the same in every run.

import (
	"encoding/json"
	"fmt"
	"sort"

	indoorq "repro"
	"repro/internal/bench"
	"repro/internal/object"
	"repro/internal/wire"
)

const (
	// historyWAL batches of historyMoves moves are pre-written: about
	// 11 MB of log, under the daemon's 64 MiB compaction threshold, so
	// nothing is pruned. Small batches keep a cold materialization, which
	// replays on average half the log, near one second.
	historyWAL   = 2000
	historyMoves = 8
)

func historySpec() spec {
	return spec{City: bench.CitySmoke(), WALBatches: historyWAL, Moves: historyMoves}
}

// historyOps is the run's script. A round (one cold materialization
// and its walk) takes about 4 s on a 2-vCPU host, so a run gets a round
// per 3 configured seconds, rounded up to an odd count, as far as the
// log has segments for: 3 rounds at 6–11 s, 5 from 12 s on.
func historyOps(seed int64, seconds int, m meta) []op {
	rounds := historyRounds(max(1, seconds/3), m.Horizon)
	return historyScript(seed, rounds, m.Horizon, len(m.Points), m.Objects, m.Partitions)
}

func runHistory(e *env) (*report, error) {
	fx, err := loadFixture(e.cache, "history", historySpec(), e.seed, e.srcHash)
	if err != nil {
		return nil, err
	}
	ops := historyOps(e.seed, e.seconds, fx.meta)
	if e.trace {
		return traceHistory(e, fx, ops)
	}
	reqs, err := encodeAll(ops, fx.meta.Points, nil)
	if err != nil {
		return nil, err
	}

	rep := newReport()
	d, setupTimes, err := startSetups(e, fx)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	l := newLoader(d.base, 1)
	defer l.close()
	var st0, st1 wire.StatsResponse
	if err := l.getJSON(wire.PathStats, &st0); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res, wall := l.closed(reqs, 1, sample(3))
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if err := l.getJSON(wire.PathStats, &st1); err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop indoorqd: %w", err)
	}

	lat := byKind(ops, res)
	rep.set("setup_s", median(setupTimes), len(setupTimes))
	rep.set("range_p50_ms", median(lat[kHistRange]), len(lat[kHistRange]))
	rep.set("knn_p50_ms", median(lat[kHistKNN]), len(lat[kHistKNN]))
	rep.set("sat_ops_s", float64(len(ops))/wall.Seconds(), len(ops))
	rep.set("cpu_ms_per_op", (cpu1-cpu0)*1000/float64(len(ops)), len(ops))
	rep.set("rss_peak_mb", rss, 1)
	latencies(rep, "", lat)
	reads := append(append([]float64(nil), lat[kHistRange]...), lat[kHistKNN]...)
	rep.note("history_p50_ms", "ms", median(reads), len(reads))
	rep.note("history_p99_ms", "ms", percentile(reads, 99), len(reads))
	rep.note("session_s", "s", wall.Seconds(), len(ops))
	if st0.History == nil || st1.History == nil {
		return nil, fmt.Errorf("daemon reports no history provider")
	}
	h0, h1 := st0.History, st1.History
	rep.note("daemon.materializations", "count", float64(h1.Materializations-h0.Materializations), 0)
	rep.note("daemon.advances", "count", float64(h1.Advances-h0.Advances), 0)
	rep.note("daemon.view_hits", "count", float64(h1.ViewHits-h0.ViewHits), 0)
	rep.attempted = len(ops)
	rep.failed = countFailed(res)

	// Correctness: sampled answers against an in-process DB's AsOf on a
	// fresh copy of the same store, visited in LSN order so one
	// materialization serves them all.
	dir := e.work + "/check"
	if err := copyStore(fx.storeDir(), dir); err != nil {
		return nil, err
	}
	db, err := indoorq.OpenDir(dir, indoorq.DurabilityOptions{})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	n, err := checkHistory(db, fx.meta.Points, ops, res)
	if err != nil {
		return nil, err
	}
	rep.note("checked_answers", "count", float64(n), n)
	return rep, nil
}

// checkHistory compares every sampled history reply with the in-process
// answer; it returns how many it checked.
func checkHistory(db *indoorq.DB, points []wire.Position, ops []op, res []result) (int, error) {
	var idx []int
	for i, r := range res {
		if r.body != nil && !r.failed {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return asOfLSN(ops[idx[a]]) < asOfLSN(ops[idx[b]]) })
	for _, i := range idx {
		o, body := ops[i], res[i].body
		want, err := historyAnswer(db, points, o)
		if err != nil {
			return 0, fmt.Errorf("in-process %s: %w", o.Kind, err)
		}
		if !sameJSON(body, want) {
			return 0, fmt.Errorf("correctness: daemon %s answer (lsn %d) differs from in-process AsOf", o.Kind, asOfLSN(o))
		}
	}
	return len(idx), nil
}

func asOfLSN(o op) uint64 {
	if o.Kind == kTrajectory || o.Kind == kOccupancy {
		return o.From
	}
	return o.LSN
}

// historyAnswer computes op's reply in-process, in wire form.
func historyAnswer(db *indoorq.DB, points []wire.Position, o op) (any, error) {
	switch o.Kind {
	case kHistRange, kHistKNN:
		v, err := db.AsOf(o.LSN)
		if err != nil {
			return nil, err
		}
		q := points[o.Point].Domain()
		var rs []indoorq.Result
		if o.Kind == kHistRange {
			rs, _, err = v.RangeQuery(q, queryRadius)
		} else {
			rs, _, err = v.KNNQuery(q, queryK)
		}
		return wire.HistoryQueryResponse{Lsn: v.LSN(), Results: wire.ResultsOf(rs)}, err
	case kTrajectory:
		visits, err := db.Trajectory(object.ID(o.Object), o.From, o.To)
		out := wire.HistoryTrajectoryResponse{Visits: make([]wire.HistoryVisit, len(visits))}
		for i, v := range visits {
			out.Visits[i] = wire.HistoryVisit{Partition: int64(v.Partition), EnterLsn: v.EnterLSN, LastLsn: v.LastLSN}
		}
		return out, err
	case kOccupancy:
		occ, err := db.Occupancy(indoorq.PartitionID(o.Partition), o.From, o.To)
		return wire.HistoryOccupancyResponse{Initial: occ.Initial, Enters: occ.Enters, Leaves: occ.Leaves, Final: occ.Final}, err
	}
	return nil, fmt.Errorf("not a history op: %s", o.Kind)
}

// sameJSON reports whether body encodes the same value as want: both are
// decoded to generic JSON and compared after re-encoding.
func sameJSON(body []byte, want any) bool {
	wb, err := json.Marshal(want)
	if err != nil {
		return false
	}
	var a, b any
	if json.Unmarshal(body, &a) != nil || json.Unmarshal(wb, &b) != nil {
		return false
	}
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	return string(ab) == string(bb)
}

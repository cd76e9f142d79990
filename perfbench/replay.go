package main

// The per-workload replays of the traced run (see trace.go).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	indoorq "repro"
	"repro/internal/history"
	"repro/internal/object"
	"repro/internal/server"
	"repro/internal/wire"
)

// traceOpsPerSecond caps a read or churn replay: requests per configured
// second of the run.
const traceOpsPerSecond = 30

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// requestOf returns an empty value of op's request body type.
func requestOf(k opKind) any {
	switch k {
	case kRange:
		return &wire.RangeBatch{}
	case kKNN:
		return &wire.KNNBatch{}
	case kUpdate:
		return &wire.UpdateBatch{}
	case kHistRange:
		return &wire.HistoryRangeRequest{}
	case kHistKNN:
		return &wire.HistoryKNNRequest{}
	case kTrajectory:
		return &wire.HistoryTrajectoryRequest{}
	default:
		return &wire.HistoryOccupancyRequest{}
	}
}

// callFn makes the layer calls a handler delegates to for one decoded
// request, in spans under root when tr is set. It returns the reply the
// handler would encode and the time of the delegated calls.
type callFn func(tr *tracer, i, root int, req any) (reply any, delegated time.Duration, err error)

// pass replays the script through call: decode, call, encode per
// request. tr nil is the untraced call pass.
func (ly *layers) pass(tr *tracer, ops []op, reqs []request, call callFn) error {
	for i, o := range ops {
		root := -1
		t0 := time.Now()
		if tr != nil {
			root = tr.begin("request", -1, i)
		}
		req := requestOf(o.Kind)
		var err error
		dec := timed(tr, "wire.req_decode", root, i, func() { err = json.Unmarshal(reqs[i].body, req) })
		if err != nil {
			return fmt.Errorf("decode %s: %w", o.Kind, err)
		}
		reply, delegated, err := call(tr, i, root, req)
		if err != nil {
			return fmt.Errorf("replay %s: %w", o.Kind, err)
		}
		var body []byte
		enc := timed(tr, "wire.resp_encode", root, i, func() { body, err = json.Marshal(reply) })
		if err != nil {
			return err
		}
		d := time.Since(t0)
		if tr != nil {
			d = tr.end(root)
		}
		ly.request = append(ly.request, ms(d))
		ly.handler = append(ly.handler, ms(dec+delegated+enc))
		ly.decodeUS.add(us(dec))
		ly.encodeUS.add(us(enc))
		ly.respBytes.add(float64(len(body)))
	}
	return nil
}

// servePass runs every request through the server's handler, untraced.
// after runs once per request, outside the timing.
func servePass(db *indoorq.DB, reqs []request, after func()) (served, error) {
	srv := server.NewLeader(db, server.Config{})
	defer srv.Close()
	h := srv.Handler()
	var sv served
	for _, r := range reqs {
		t0 := time.Now()
		rec := serve(h, r)
		sv.request = append(sv.request, ms(time.Since(t0)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			sv.refused++
		default:
			return sv, fmt.Errorf("serve %s: status %d: %s", r.path, rec.Code, rec.Body.String())
		}
		var br wire.BatchResponse
		if (r.path == wire.PathRangeQuery || r.path == wire.PathKNNQuery) && json.Unmarshal(rec.Body.Bytes(), &br) == nil {
			sv.coalesce.add(float64(br.Metrics.Queries))
		}
		if after != nil {
			after()
		}
	}
	return sv, nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// liveCall attributes live reads to the serve-pool batch (with the query
// phases it returns) and update batches to the commit pipeline and log.
func liveCall(db *indoorq.DB, ly *layers) callFn {
	return func(tr *tracer, i, root int, req any) (any, time.Duration, error) {
		var (
			resps []indoorq.BatchResponse
			m     indoorq.BatchMetrics
			kind  = kRange
		)
		var d time.Duration
		switch q := req.(type) {
		case *wire.RangeBatch:
			rs := []indoorq.RangeRequest{{Q: q.Queries[0].Q.Domain(), R: q.Queries[0].R}}
			d = timed(tr, "serve.batch", root, i, func() { resps, m = db.BatchRangeQuery(rs, indoorq.ServeConfig{}) })
		case *wire.KNNBatch:
			kind = kKNN
			ks := []indoorq.KNNRequest{{Q: q.Queries[0].Q.Domain(), K: q.Queries[0].K}}
			d = timed(tr, "serve.batch", root, i, func() { resps, m = db.BatchKNNQuery(ks, indoorq.ServeConfig{}) })
		case *wire.UpdateBatch:
			return updateCall(tr, i, root, db, ly, q)
		default:
			return nil, 0, fmt.Errorf("not a live request: %T", req)
		}
		ly.batch.add(ms(d))
		r := resps[0]
		if r.Err != nil {
			return nil, 0, r.Err
		}
		ly.queryStats(kind, r.Stats)
		return wire.BatchResponse{Metrics: wire.MetricsOf(m), Responses: []wire.QueryResponse{{
			Results: wire.ResultsOf(r.Results), LatencyMicros: r.Latency.Microseconds(),
		}}}, d, nil
	}
}

// updateCall applies one update batch, then syncs the log and drains the
// events it produced. Only the apply is what the handler delegates; the
// sync and the drain stand for the group commit and the event stream.
func updateCall(tr *tracer, i, root int, db *indoorq.DB, ly *layers, b *wire.UpdateBatch) (any, time.Duration, error) {
	ups := make([]indoorq.ObjectUpdate, len(b.Updates))
	for j, item := range b.Updates {
		u, err := item.Domain()
		if err != nil {
			return nil, 0, err
		}
		ups[j] = u
	}
	var err error
	apply := timed(tr, "pipeline.apply", root, i, func() { err = db.ApplyObjectUpdates(ups) })
	ly.apply.add(ms(apply))
	var serr error
	ly.sync.add(ms(timed(tr, "store.sync", root, i, func() { serr = db.Sync() })))
	if serr != nil {
		return nil, 0, serr
	}
	evs, _ := db.DrainEvents()
	ly.events += len(evs)
	ly.moves += len(ups)
	return wire.Ack{Err: errString(err)}, apply, nil
}

// historyCall attributes history requests to the provider p (the DB's
// own) and the query phases of the view it returns.
func historyCall(p *history.Provider, ly *layers) callFn {
	return func(tr *tracer, i, root int, req any) (any, time.Duration, error) {
		before := p.Stats()
		var (
			reply any
			err   error
		)
		switch q := req.(type) {
		case *wire.HistoryTrajectoryRequest:
			d := timed(tr, "history.scan", root, i, func() {
				var visits []history.Visit
				visits, err = p.Trajectory(object.ID(q.Object), q.From, q.To)
				out := wire.HistoryTrajectoryResponse{Visits: make([]wire.HistoryVisit, len(visits))}
				for j, v := range visits {
					out.Visits[j] = wire.HistoryVisit{Partition: int64(v.Partition), EnterLsn: v.EnterLSN, LastLsn: v.LastLSN}
				}
				reply = out
			})
			ly.scan.add(ms(d))
			ly.scanned += p.Stats().ScannedRecords - before.ScannedRecords
			return reply, d, err
		case *wire.HistoryOccupancyRequest:
			d := timed(tr, "history.scan", root, i, func() {
				var occ history.Occupancy
				occ, err = p.OccupancyOf(indoorq.PartitionID(q.Partition), q.From, q.To)
				reply = wire.HistoryOccupancyResponse{Initial: occ.Initial, Enters: occ.Enters, Leaves: occ.Leaves, Final: occ.Final}
			})
			ly.scan.add(ms(d))
			ly.scanned += p.Stats().ScannedRecords - before.ScannedRecords
			return reply, d, err
		}
		var lsn uint64
		kind := kHistRange
		switch q := req.(type) {
		case *wire.HistoryRangeRequest:
			lsn = q.Lsn
		case *wire.HistoryKNNRequest:
			lsn, kind = q.Lsn, kHistKNN
		default:
			return nil, 0, fmt.Errorf("not a history request: %T", req)
		}
		var v *history.View
		asof := timed(tr, "history.asof", root, i, func() { v, err = p.AsOf(lsn) })
		if err != nil {
			return nil, 0, err
		}
		switch after := p.Stats(); {
		case after.Materializations > before.Materializations:
			ly.cold.add(ms(asof))
		case after.Advances > before.Advances:
			ly.advance.add(ms(asof))
		case after.ViewHits > before.ViewHits:
			ly.hit.add(ms(asof))
		}
		var res []indoorq.Result
		var st *indoorq.QueryStats
		qd := timed(tr, "query", root, i, func() {
			if q, ok := req.(*wire.HistoryKNNRequest); ok {
				res, st, err = v.KNNQuery(q.Q.Domain(), q.K)
			} else {
				q := req.(*wire.HistoryRangeRequest)
				res, st, err = v.RangeQuery(q.Q.Domain(), q.R)
			}
		})
		if err != nil {
			return nil, 0, err
		}
		ly.queryStats(kind, st)
		return wire.HistoryQueryResponse{Lsn: v.LSN(), Results: wire.ResultsOf(res)}, asof + qd, nil
	}
}

// traceReplays runs the serve, call and traced passes and reports them.
// Each pass recovers its own copy of the store when the script changes
// state (fresh), so every pass starts from the same state. call builds
// the pass's callFn over its DB; after runs after each served request.
func traceReplays(e *env, fx *fixture, ops []op, reqs []request, fresh bool,
	call func(*indoorq.DB, *layers) callFn, after func(*indoorq.DB)) (*report, error) {
	rep := newReport()
	if err := measureStore(rep, fx); err != nil {
		return nil, err
	}
	var (
		recovers      []float64
		sv            served
		calls, traced layers
		tr            = newTracer()
		work          []history.Stats
		counts        = func(db *indoorq.DB) history.Stats { return db.History().Stats() }
	)
	passes := []func(*indoorq.DB) error{
		func(db *indoorq.DB) error {
			var err error
			sv, err = servePass(db, reqs, func() { after(db) })
			work = append(work, counts(db))
			return err
		},
		func(db *indoorq.DB) error {
			err := calls.pass(nil, ops, reqs, call(db, &calls))
			work = append(work, counts(db))
			return err
		},
		func(db *indoorq.DB) error {
			wal0, sub0 := db.WALSize(), db.SubscriptionStatsSnapshot()
			if err := traced.pass(tr, ops, reqs, call(db, &traced)); err != nil {
				return err
			}
			work = append(work, counts(db))
			sub := db.SubscriptionStatsSnapshot()
			rep.set("reconcile.batch_ms", ms(sub.ReconcileBatchMean), int(sub.Batches-sub0.Batches))
			if traced.apply.n > 0 {
				rep.set("reconcile.routed_pairs_per_update", float64(sub.RoutedPairs-sub0.RoutedPairs)/float64(traced.moves), traced.moves)
				rep.set("reconcile.events_per_batch", float64(traced.events)/float64(traced.apply.n), traced.apply.n)
				rep.set("store.wal_bytes_per_update", float64(db.WALSize()-wal0)/float64(traced.moves), traced.moves)
			}
			return nil
		},
	}
	if !fresh {
		// The script does not change the state: one recovery serves all
		// three passes.
		all := passes
		passes = []func(*indoorq.DB) error{func(db *indoorq.DB) error {
			for _, p := range all {
				if err := p(db); err != nil {
					return err
				}
			}
			return nil
		}}
	}
	for i, p := range passes {
		if err := withCopy(e, fx, fmt.Sprintf("pass-%d", i), &recovers, p); err != nil {
			return nil, err
		}
	}
	// The replays are deterministic: the history provider of every pass
	// must have done exactly the same work.
	if work[0] != work[1] || work[1] != work[2] {
		return nil, fmt.Errorf("history counters differ between passes: %+v", work)
	}
	c := work[2]
	rep.set("history.materializations", float64(c.Materializations), 0)
	rep.set("history.advances", float64(c.Advances), 0)
	rep.set("history.view_hits", float64(c.ViewHits), 0)
	rep.set("history.replayed_records", float64(c.ReplayedRecords), 0)
	rep.set("history.scanned_records", float64(c.ScannedRecords), 0)
	rep.set("store.recover_s", median(recovers), len(recovers))
	traced.report(rep, sv, &calls)
	rep.attempted = 3 * len(ops)
	return rep, tr.write(e.spansPath)
}

func traceRead(e *env, fx *fixture, ops []op) (*report, error) {
	ops = ops[:min(len(ops), traceOpsPerSecond*e.seconds)]
	reqs, err := encodeAll(ops, fx.meta.Points, nil)
	if err != nil {
		return nil, err
	}
	return traceReplays(e, fx, ops, reqs, false, liveCall, func(*indoorq.DB) {})
}

func traceChurn(e *env, fx *fixture, ops []op) (*report, error) {
	ops = ops[:min(len(ops), traceOpsPerSecond*e.seconds)]
	reqs, err := encodeAll(ops, fx.meta.Points, fx.meta.Batches)
	if err != nil {
		return nil, err
	}
	drain := func(db *indoorq.DB) { db.DrainEvents() }
	return traceReplays(e, fx, ops, reqs, true, liveCall, drain)
}

func traceHistory(e *env, fx *fixture, ops []op) (*report, error) {
	reqs, err := encodeAll(ops, fx.meta.Points, nil)
	if err != nil {
		return nil, err
	}
	call := func(db *indoorq.DB, ly *layers) callFn { return historyCall(db.History(), ly) }
	return traceReplays(e, fx, ops, reqs, true, call, func(*indoorq.DB) {})
}

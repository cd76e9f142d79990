package main

// city-churn: the write path. A durable leader holding standing
// subscriptions takes update batches among reads on one request
// connection while a second connection consumes the event stream.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	indoorq "repro"
	"repro/internal/bench"
	"repro/internal/wire"
)

const (
	// churnRate is the open loop's offered load on its one request
	// connection: one update batch and seven reads per 8 ops.
	churnRate = 40
	// churnSatPerSecond sizes the closed loop: operations per configured
	// second.
	churnSatPerSecond = 150
	// quiesceReads are read at the end, after the last write, and
	// compared with the store the daemon leaves behind.
	quiesceReads = 24
)

func churnSpec() spec {
	return spec{City: bench.CitySmoke(), Subs: 1000, Batches: 512, Moves: bench.CityChurnBatchSize}
}

// churnScripts returns the open-loop phase A and the closed-loop phase
// B; B's batches follow A's in the pool.
func churnScripts(seed int64, seconds, points, batches int) (a, b []op) {
	rngA := rngFor(seed, "churn-a")
	a = churnMix(rngA, churnRate*seconds, points, batches, 0)
	poisson(rngA, a, churnRate)
	used := 0
	for _, o := range a {
		if o.Kind == kUpdate {
			used++
		}
	}
	b = churnMix(rngFor(seed, "churn-b"), churnSatPerSecond*seconds, points, batches, used)
	return a, b
}

// events consumes /v1/events on a connection of its own.
type events struct {
	cancel context.CancelFunc
	done   chan struct{}
	// Written by the consumer goroutine, read after done closes.
	events, overflows int
}

func consumeEvents(base string) (*events, error) {
	ctx, cancel := context.WithCancel(context.Background())
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+wire.PathEvents, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("event stream: %s", resp.Status)
	}
	ev := &events{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(ev.done)
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var c wire.EventChunk
			if dec.Decode(&c) != nil {
				return
			}
			ev.events += len(c.Events)
			if c.Overflow {
				ev.overflows++
			}
		}
	}()
	return ev, nil
}

func (ev *events) stop() {
	ev.cancel()
	<-ev.done
}

// countAcked counts the update batches the daemon acknowledged.
func countAcked(ops []op, res []result) int {
	n := 0
	for i, r := range res {
		if ops[i].Kind == kUpdate && !r.failed {
			n++
		}
	}
	return n
}

func runCityChurn(e *env) (*report, error) {
	fx, err := loadFixture(e.cache, "city-churn", churnSpec(), e.seed, e.srcHash)
	if err != nil {
		return nil, err
	}
	opsA, opsB := churnScripts(e.seed, e.seconds, len(fx.meta.Points), len(fx.meta.Batches))
	if e.trace {
		return traceChurn(e, fx, opsA)
	}
	reqsA, err := encodeAll(opsA, fx.meta.Points, fx.meta.Batches)
	if err != nil {
		return nil, err
	}
	reqsB, err := encodeAll(opsB, fx.meta.Points, fx.meta.Batches)
	if err != nil {
		return nil, err
	}
	final := readMix(rngFor(e.seed, "churn-final"), quiesceReads, len(fx.meta.Points))
	reqsFinal, err := encodeAll(final, fx.meta.Points, nil)
	if err != nil {
		return nil, err
	}
	warm, err := encodeAll(readMix(rngFor(e.seed, "churn-warmup"), warmupOps, len(fx.meta.Points)), fx.meta.Points, nil)
	if err != nil {
		return nil, err
	}

	rep := newReport()
	d, setupTimes, err := startSetups(e, fx)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	// One request connection; the event stream takes the other.
	l := newLoader(d.base, max(1, e.conns-1))
	defer l.close()
	ev, err := consumeEvents(d.base)
	if err != nil {
		return nil, err
	}
	defer ev.stop()
	l.closed(warm, 1, sample(len(warm)+1))
	var st0 wire.StatsResponse
	if err := l.getJSON(wire.PathStats, &st0); err != nil {
		return nil, err
	}

	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	resA := l.open(reqsA, opsA, 1, sample(len(reqsA)+1))
	resB, wallB := l.closed(reqsB, 1, sample(len(reqsB)+1))
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	// Quiesce: no write is in flight; let the stream drain its last poll.
	time.Sleep(100 * time.Millisecond)
	resFinal, _ := l.closed(reqsFinal, 1, sample(1))
	var st1 wire.StatsResponse
	if err := l.getJSON(wire.PathStats, &st1); err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	ev.stop()
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop indoorqd: %w", err)
	}

	latA := byKind(opsA, resA)
	rep.set("setup_s", median(setupTimes), len(setupTimes))
	rep.set("range_p50_ms", median(latA[kRange]), len(latA[kRange]))
	rep.set("knn_p50_ms", median(latA[kKNN]), len(latA[kKNN]))
	rep.set("sat_ops_s", float64(len(opsB))/wallB.Seconds(), len(opsB))
	rep.set("cpu_ms_per_op", (cpu1-cpu0)*1000/float64(len(opsA)+len(opsB)), len(opsA)+len(opsB))
	rep.set("rss_peak_mb", rss, 1)
	latencies(rep, "a.", latA)
	latencies(rep, "b.", byKind(opsB, resB))
	rep.attempted = len(opsA) + len(opsB) + len(final)
	rep.failed = countFailed(resA) + countFailed(resB) + countFailed(resFinal)
	if err := lateness(rep, resA); err != nil {
		return nil, err
	}
	acked := countAcked(opsA, resA) + countAcked(opsB, resB)
	rep.note("acked_batches", "count", float64(acked), acked)
	rep.note("events", "count", float64(ev.events), ev.events)
	rep.note("events_overflows", "count", float64(ev.overflows), ev.overflows)
	if st1.Reconcile != nil {
		rep.note("daemon.reconcile_p50_ms", "ms", float64(st1.Reconcile.BatchP50Micros)/1000, int(st1.Reconcile.Batches))
	}

	// Correctness: every acked batch is one logged record, and the store
	// the daemon left behind recovers to the state it served at quiesce.
	if got := st1.WrittenLSN - st0.WrittenLSN; got != uint64(acked) {
		return nil, fmt.Errorf("correctness: log advanced %d records for %d acked batches", got, acked)
	}
	db, err := indoorq.OpenDir(d.dir, indoorq.DurabilityOptions{})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if got := db.Store().WrittenLSN(); got != st1.WrittenLSN {
		return nil, fmt.Errorf("correctness: recovered store ends at lsn %d, daemon wrote %d", got, st1.WrittenLSN)
	}
	checks := appendAnswers(nil, final, resFinal)
	if len(checks) != len(final) {
		return nil, fmt.Errorf("correctness: %d of %d quiesce reads failed", len(final)-len(checks), len(final))
	}
	if err := checkAnswers(db, fx.meta.Points, checks); err != nil {
		return nil, err
	}
	rep.note("checked_answers", "count", float64(len(checks)), len(checks))
	return rep, nil
}

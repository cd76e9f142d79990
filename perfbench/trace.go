package main

// The traced run: the workload's seeded script replayed in-process
// against the same store, with spans around the calls into each layer's
// public functions and the counters those functions already return.
//
// The script is replayed three times, each from the same recovered state
// (a fresh copy per pass when the script changes state):
//
//   - serve pass: every request through the server's ServeHTTP, untraced
//     (the production path, minus the network);
//   - call pass: per request, the calls the handler makes — the wire
//     decode, the layer call it delegates to (serve-pool batch, update
//     apply, history provider) and the reply encode — untraced;
//   - traced pass: the call pass again, with every call in a span under
//     one root span per request.
//
// A layer's self time is its span's duration minus the spans it
// delegates to; the server's is its ServeHTTP time minus the calls the
// call pass makes for it. The tracing overhead is the traced pass's
// request time minus the call pass's.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	indoorq "repro"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/serde"
	"repro/internal/store"
)

// span is one timed call. Spans of one request share Req; Parent is the
// index of the enclosing span, -1 for a request's root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// write saves the spans as JSON for inspection after the run.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// timed runs fn, inside a span when tr is set, and returns its duration.
func timed(tr *tracer, name string, parent, req int, fn func()) time.Duration {
	if tr == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	s := tr.begin(name, parent, req)
	fn()
	return tr.end(s)
}

// acc accumulates one per-request quantity.
type acc struct {
	sum float64
	n   int
}

func (a *acc) add(v float64) { a.sum += v; a.n++ }

func (a *acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// layers accumulates one replay pass's per-layer measurements.
type layers struct {
	decodeUS, encodeUS, respBytes acc
	batch                         acc
	phases                        [2][4]acc // [range, knn][filter, subgraph, prune, refine], ms
	candidates, units, refined    acc
	fallbacks                     acc
	apply, sync                   acc
	moves, events                 int
	cold, advance, hit, scan      acc // history provider calls, ms
	scanned                       uint64
	// request is each request's whole time (ms); handler the part that
	// stands for what ServeHTTP does (decode, delegated call, encode).
	request, handler []float64
}

func (ly *layers) queryStats(kind opKind, st *query.Stats) {
	k := 0
	if kind == kKNN || kind == kHistKNN {
		k = 1
	}
	for i, d := range []time.Duration{st.Filtering, st.Subgraph, st.Pruning, st.Refinement} {
		ly.phases[k][i].add(ms(d))
	}
	ly.candidates.add(float64(st.Candidates))
	ly.units.add(float64(st.UnitsRetrieved))
	ly.refined.add(float64(st.Refined))
	ly.fallbacks.add(float64(st.FullFallbacks))
}

// served is the serve pass's outcome.
type served struct {
	request  []float64 // ServeHTTP time per request, ms
	coalesce acc
	refused  int
}

// report publishes the traced pass's layers, the server's self time and
// the tracing overhead.
func (ly *layers) report(rep *report, sv served, calls *layers) {
	rep.set("wire.req_decode_us", ly.decodeUS.mean(), ly.decodeUS.n)
	rep.set("wire.resp_encode_us", ly.encodeUS.mean(), ly.encodeUS.n)
	rep.set("wire.resp_bytes", ly.respBytes.mean(), ly.respBytes.n)
	rep.set("server.self_ms", median(diff(sv.request, calls.handler)), len(sv.request))
	rep.set("server.coalesce_batch", sv.coalesce.mean(), sv.coalesce.n)
	rep.set("server.refused", float64(sv.refused), len(sv.request))
	rep.set("serve.batch_ms", ly.batch.mean(), ly.batch.n)
	names := [2]string{"range", "knn"}
	phases := [4]string{"filter", "subgraph", "prune", "refine"}
	for k := range names {
		for p := range phases {
			a := ly.phases[k][p]
			rep.set("query."+names[k]+"."+phases[p]+"_ms", a.mean(), a.n)
		}
	}
	rep.set("query.candidates", ly.candidates.mean(), ly.candidates.n)
	rep.set("query.units", ly.units.mean(), ly.units.n)
	rep.set("query.refined", ly.refined.mean(), ly.refined.n)
	rep.set("query.full_fallbacks", ly.fallbacks.mean(), ly.fallbacks.n)
	share := 0.0
	if ly.candidates.sum > 0 {
		share = ly.refined.sum / ly.candidates.sum
	}
	rep.set("query.refine_share", share, ly.candidates.n)
	rep.set("pipeline.apply_ms", ly.apply.mean(), ly.apply.n)
	rep.set("store.sync_ms", ly.sync.mean(), ly.sync.n)
	rep.set("history.asof_cold_ms", ly.cold.mean(), ly.cold.n)
	rep.set("history.asof_advance_ms", ly.advance.mean(), ly.advance.n)
	rep.set("history.view_hit_ms", ly.hit.mean(), ly.hit.n)
	perK := 0.0
	if ly.scanned > 0 {
		perK = ly.scan.sum / (float64(ly.scanned) / 1000)
	}
	rep.set("history.scan_ms_per_krecord", perK, ly.scan.n)
	rep.set("trace.request_ms", median(ly.request), len(ly.request))
	rep.set("trace.untraced_request_ms", median(calls.request), len(calls.request))
	rep.set("trace.overhead_ms", median(diff(ly.request, calls.request)), len(ly.request))
	rep.note("serve_pass.request_ms", "ms", median(sv.request), len(sv.request))
}

// serve runs one request through an in-process handler.
func serve(h http.Handler, r request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
	return rec
}

// measureStore times, separately, the checkpoint decode and the index
// build a recovery performs, on the fixture's checkpoint.
func measureStore(rep *report, fx *fixture) error {
	ckpts, err := filepath.Glob(filepath.Join(fx.storeDir(), "checkpoint-*.ckpt"))
	if err != nil {
		return err
	}
	if len(ckpts) == 0 {
		return os.ErrNotExist
	}
	t0 := time.Now()
	data, err := store.ReadSnapshot(ckpts[len(ckpts)-1])
	if err != nil {
		return err
	}
	b, _, err := serde.DecodeExact(bytes.NewReader(data.BuildingJSON))
	if err != nil {
		return err
	}
	rep.set("store.decode_s", time.Since(t0).Seconds(), 1)
	t0 = time.Now()
	if _, _, err := index.Build(b, data.Objects, data.IndexOpts); err != nil {
		return err
	}
	rep.set("index.build_s", time.Since(t0).Seconds(), 1)
	debug.FreeOSMemory()
	return nil
}

// withCopy recovers a DB from a fresh copy of the fixture store, runs fn
// on it and closes it, appending the recovery time to recovers.
func withCopy(e *env, fx *fixture, name string, recovers *[]float64, fn func(*indoorq.DB) error) error {
	dir := filepath.Join(e.work, name)
	if err := copyStore(fx.storeDir(), dir); err != nil {
		return err
	}
	t0 := time.Now()
	db, err := indoorq.OpenDir(dir, indoorq.DurabilityOptions{})
	if err != nil {
		return err
	}
	*recovers = append(*recovers, time.Since(t0).Seconds())
	err = fn(db)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	debug.FreeOSMemory()
	return err
}

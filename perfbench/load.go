package main

// The load generator: open and closed loops over a bounded set of
// keep-alive HTTP connections to the daemon.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// result is one request's outcome.
type result struct {
	// lat is completion minus due time in an open loop (so a stall also
	// charges the requests queued behind it) and completion minus send
	// time in a closed loop.
	lat time.Duration
	// late is send minus due time: how long an open-loop request waited
	// for its turn, on the generator or for a free connection.
	late time.Duration
	// dispatchLate is how late the generator itself handed the request
	// to a sender: its own schedule keeping, apart from the system's.
	dispatchLate time.Duration
	failed       bool
	body         []byte // kept only for sampled requests
}

type loader struct {
	base string
	hc   *http.Client
}

// newLoader opens at most conns connections to base.
func newLoader(base string, conns int) *loader {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loader{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (l *loader) close() { l.hc.CloseIdleConnections() }

var errKey = []byte(`"err":`)

// do sends one request. A transport error, a non-200 status (429
// refusals included) or an error carried in the body marks it failed.
func (l *loader) do(r request, keep bool) result {
	resp, err := l.hc.Post(l.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return result{failed: true}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res := result{failed: err != nil || resp.StatusCode != http.StatusOK || bytes.Contains(body, errKey)}
	if keep {
		res.body = body
	}
	return res
}

// open runs an open loop: request i is handed to one of conns senders at
// its due offset, whether or not earlier requests have finished.
func (l *loader) open(reqs []request, ops []op, conns int, keep func(int) bool) []result {
	res := make([]result, len(reqs))
	dispatched := make([]time.Duration, len(reqs))
	// Sized to the number of sends, so the dispatcher never blocks on
	// busy senders and keeps its schedule.
	jobs := make(chan int, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				due := start.Add(ops[i].Due)
				sent := time.Now()
				r := l.do(reqs[i], keep(i))
				r.lat, r.late = time.Since(due), sent.Sub(due)
				r.dispatchLate = dispatched[i]
				res[i] = r
			}
		}()
	}
	for i := range ops {
		if d := time.Until(start.Add(ops[i].Due)); d > 0 {
			time.Sleep(d)
		}
		dispatched[i] = time.Since(start) - ops[i].Due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return res
}

// closed runs a closed loop: conns senders each send their next request
// as soon as the previous one completes, until all reqs are done. It
// returns the wall time of the whole loop.
func (l *loader) closed(reqs []request, conns int, keep func(int) bool) ([]result, time.Duration) {
	res := make([]result, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				r := l.do(reqs[i], keep(i))
				r.lat = time.Since(t0)
				res[i] = r
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// byKind splits result latencies (ms) by op kind.
func byKind(ops []op, res []result) [numKinds][]float64 {
	var out [numKinds][]float64
	for i, r := range res {
		if !r.failed {
			out[ops[i].Kind] = append(out[ops[i].Kind], ms(r.lat))
		}
	}
	return out
}

func countFailed(res []result) int {
	n := 0
	for _, r := range res {
		if r.failed {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// getJSON fetches path over the loader's own connections into v.
func (l *loader) getJSON(path string, v any) error {
	resp, err := l.hc.Get(l.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

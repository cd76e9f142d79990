package main

import (
	"path/filepath"
	"reflect"
	"testing"

	indoorq "repro"
	"repro/internal/bench"
	"repro/internal/history"
)

// The same seed must give the same requests, at the same offsets, in
// every phase of every workload; another seed must not.
func TestScriptsRepeatPerSeed(t *testing.T) {
	scripts := func(seed int64) [][]op {
		a, b, c := readScripts(seed, 3, 4096)
		ca, cb := churnScripts(seed, 3, 4096, 512)
		h := historyScript(seed, 3, 2000, 4096, []int64{1, 2, 3}, []int64{4, 5})
		return [][]op{a, b, c, ca, cb, h}
	}
	first, again, other := scripts(7), scripts(7), scripts(8)
	if !reflect.DeepEqual(first, again) {
		t.Fatal("seed 7 gave two different scripts")
	}
	for i := range first {
		if len(first[i]) == 0 {
			t.Fatalf("script %d is empty", i)
		}
		if reflect.DeepEqual(first[i], other[i]) {
			t.Fatalf("script %d is the same for seeds 7 and 8", i)
		}
	}
}

// The read mix is exactly 1:1, the churn mix one update per eight ops,
// and open-loop offsets never decrease.
func TestScriptShapes(t *testing.T) {
	a, _, _ := readScripts(1, 4, 4096)
	var kinds [numKinds]int
	for i, o := range a {
		kinds[o.Kind]++
		if i > 0 && o.Due < a[i-1].Due {
			t.Fatalf("op %d due %v before op %d due %v", i, o.Due, i-1, a[i-1].Due)
		}
	}
	if kinds[kRange] != kinds[kKNN] || kinds[kRange]+kinds[kKNN] != len(a) {
		t.Fatalf("read mix %v is not 1:1", kinds)
	}
	ca, _ := churnScripts(1, 4, 4096, 512)
	kinds = [numKinds]int{}
	for _, o := range ca {
		kinds[o.Kind]++
	}
	if kinds[kUpdate]*8 != len(ca) {
		t.Fatalf("churn mix %v: want one update per 8 of %d ops", kinds, len(ca))
	}
}

// Every history round has the same read mix, and the round count is
// odd, so each kind's median falls inside the middle round.
func TestHistoryScriptShape(t *testing.T) {
	fits := 2000 / roundSpan
	for want := 1; want <= 20; want++ {
		if n := historyRounds(want, 2000); n%2 == 0 || n > fits || n < min(want, fits-1) {
			t.Fatalf("historyRounds(%d, 2000) = %d: want the odd count ≥ %d the log fits (%d)", want, n, want, fits)
		}
	}
	if n := historyRounds(1, 2*roundSpan+1); n != 1 {
		t.Fatalf("a log of two round spans gave %d rounds, want 1", n)
	}
	const rounds = 3
	ops := historyScript(4, rounds, 2000, 4096, []int64{1, 2, 3}, []int64{4, 5})
	per := roundReads + 2
	if len(ops) != rounds*per {
		t.Fatalf("%d ops for %d rounds, want %d", len(ops), rounds, rounds*per)
	}
	for r := 0; r < rounds; r++ {
		var kinds [numKinds]int
		for _, o := range ops[r*per : (r+1)*per] {
			kinds[o.Kind]++
		}
		if kinds[kHistRange] != roundRanges || kinds[kHistKNN] != roundReads-roundRanges ||
			kinds[kTrajectory] != 1 || kinds[kOccupancy] != 1 {
			t.Fatalf("round %d mix %v", r, kinds)
		}
	}
}

// percentile is nearest-rank: sorted[ceil(p/100·n)−1].
func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5},  // even n: the lower middle value
		{ten, 90, 9},  // ceil(9) = 9th
		{ten, 91, 10}, // ceil(9.1) = 10th
		{ten, 99, 10},
		{ten, 100, 10},
		{ten, 1, 1},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{42}, 99, 42},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
}

// Two replays of one history script on fresh copies of one store leave
// the provider with identical counters, traced or not.
func TestHistoryCountersRepeat(t *testing.T) {
	sp := spec{
		City:       bench.CityConfig{Rows: 1, Cols: 1, FloorsMin: 1, FloorsMax: 1, Objects: 300, Radius: 8, Instances: 5},
		WALBatches: 700, Moves: 2,
	}
	dir := t.TempDir()
	m, err := generate(sp, 3, filepath.Join(dir, "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	rounds := historyRounds(3, m.Horizon)
	ops := historyScript(3, rounds, m.Horizon, len(m.Points), m.Objects, m.Partitions)
	reqs, err := encodeAll(ops, m.Points, nil)
	if err != nil {
		t.Fatal(err)
	}
	var counts []history.Stats
	for i, tr := range []*tracer{nil, newTracer()} {
		copyDir := filepath.Join(dir, "copy", string(rune('a'+i)))
		if err := copyStore(filepath.Join(dir, "fixture"), copyDir); err != nil {
			t.Fatal(err)
		}
		db, err := indoorq.OpenDir(copyDir, indoorq.DurabilityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var ly layers
		if err := ly.pass(tr, ops, reqs, historyCall(db.History(), &ly)); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, db.History().Stats())
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if counts[0] != counts[1] {
		t.Fatalf("history counters differ between replays:\n%+v\n%+v", counts[0], counts[1])
	}
	// The script's promise: one cold materialization per round, every
	// walk step an advance.
	if c := counts[0]; c.Materializations != uint64(rounds) || c.Advances != uint64(rounds*walkSteps) {
		t.Fatalf("%d rounds gave %d materializations and %d advances", rounds, c.Materializations, c.Advances)
	}
}

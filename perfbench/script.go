package main

// Seeded request scripts. Every schedule and script is a pure function of
// the workload seed, the run length and the fixture's pools, so the same
// seed replays the same requests in the same order, at the same offsets,
// against the daemon and against the in-process traced replay alike.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/wire"
)

type opKind int

const (
	kRange opKind = iota
	kKNN
	kUpdate
	kHistRange
	kHistKNN
	kTrajectory
	kOccupancy
	numKinds
)

var kindNames = [numKinds]string{"range", "knn", "update", "history_range", "history_knn", "trajectory", "occupancy"}

func (k opKind) String() string { return kindNames[k] }

// Query shapes shared by every workload: the paper's default iRQ radius
// and kNN k at city scale.
const (
	queryRadius = 50
	queryK      = 10
)

// op is one scripted request.
type op struct {
	Kind opKind
	// Due is the offset from the phase start at which an open-loop
	// request is due; zero in closed loops.
	Due time.Duration
	// Point indexes the fixture's query-point pool (reads).
	Point int
	// Batch indexes the fixture's update batches (updates).
	Batch int
	// LSN addresses a historical read; From/To bound a log scan.
	LSN, From, To uint64
	// Object and Partition name a trajectory or occupancy scan.
	Object, Partition int64
}

// rngFor derives an independent stream per (seed, purpose), so adding a
// phase never shifts the requests of another.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range purpose {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*7919 ^ h))
}

// readMix returns n reads in an exact 1:1 range:kNN mix, shuffled, over
// random pool points.
func readMix(rng *rand.Rand, n, points int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{Kind: kRange, Point: rng.Intn(points)}
		if i%2 == 1 {
			ops[i].Kind = kKNN
		}
	}
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// churnMix returns n ops in groups of eight: one update batch at a
// seeded position among seven reads (1:1 range:kNN). Batches are taken
// from the pool in order starting at firstBatch.
func churnMix(rng *rand.Rand, n, points, batches, firstBatch int) []op {
	ops := make([]op, 0, n)
	next := firstBatch
	for len(ops) < n {
		upd := rng.Intn(8)
		for j := 0; j < 8 && len(ops) < n; j++ {
			if j == upd {
				ops = append(ops, op{Kind: kUpdate, Batch: next % batches})
				next++
				continue
			}
			k := kRange
			if rng.Intn(2) == 1 {
				k = kKNN
			}
			ops = append(ops, op{Kind: k, Point: rng.Intn(points)})
		}
	}
	return ops
}

// poisson stamps ops with Poisson arrival offsets at rate ops/s: an open
// loop of independent users.
func poisson(rng *rand.Rand, ops []op, rate float64) {
	var t float64
	for i := range ops {
		t += rng.ExpFloat64() / rate
		ops[i].Due = time.Duration(t * float64(time.Second))
	}
}

// History script shape.
const (
	coldJitter  = 16  // a round's cold read lands this close to its segment's base
	walkSteps   = 256 // warm advances per round
	walkStep    = 1   // records between walk reads
	viewRepeats = 2   // exact repeats of a walk LSN per round
	// viewWindow is how far back in the walk a repeat may reach: well
	// inside the daemon's 64-view cache, so a repeat is always a hit.
	viewWindow = 32
	scanWindow = 60 // records a trajectory or occupancy scan covers
	// roundSpan is the log one round touches.
	roundSpan = coldJitter + walkSteps*walkStep + scanWindow
	// roundReads is a round's history reads, roundRanges of them range
	// reads.
	roundReads  = 1 + walkSteps + viewRepeats
	roundRanges = (roundReads + 1) / 2
)

// historyRounds is the number of rounds historyScript fits in a log of
// horizon records: want rounded up to an odd count, at most one log
// segment of at least roundSpan records each, and odd again if the log
// caps it.
//
// The count is odd because a history read's latency grows with its LSN
// (a log tailer reads its generation from the start), so a script's
// reads form one latency cluster per round. With an odd count and the
// same read mix in every round, the median of each read kind lies in
// the middle of the middle round's cluster; with an even count it would
// lie on the edge between two clusters, and its value would jump from
// run to run.
func historyRounds(want int, horizon uint64) int {
	n := min(want|1, int(horizon/roundSpan))
	if n%2 == 0 {
		n--
	}
	return max(1, n)
}

// historyScript is the fixed history session. The log is cut into rounds
// equal segments, visited from the newest down; each round is
//
//   - one history read near its segment's base: every cached state lies
//     above it, so it is a cold materialization replaying the log up to
//     there,
//   - a forward walk of walkSteps reads walkStep records apart, each
//     advancing the state the previous step left,
//   - viewRepeats reads repeating exactly an LSN of the walk's last
//     viewWindow steps (view hits),
//   - one trajectory and one occupancy scan over scanWindow records from
//     the walk's last LSN (which their own as-of lookup finds cached).
//
// A round's reads are an exact mix of roundRanges range and the rest
// kNN reads, shuffled. So every seed gives the same count of cold, warm
// and cached reads of each kind in every round, and nearly the same
// replay lengths; the seed picks the exact LSNs, which read is which
// kind, the points, objects and partitions.
func historyScript(seed int64, rounds int, horizon uint64, points int, objects, partitions []int64) []op {
	rng := rngFor(seed, "history")
	var kinds []opKind
	read := func(lsn uint64) op {
		k := kinds[0]
		kinds = kinds[1:]
		return op{Kind: k, LSN: lsn, Point: rng.Intn(points)}
	}
	seg := horizon / uint64(rounds)
	var ops []op
	for r := rounds - 1; r >= 0; r-- {
		kinds = make([]opKind, roundReads)
		for i := range kinds {
			kinds[i] = kHistKNN
			if i < roundRanges {
				kinds[i] = kHistRange
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		lsn := uint64(r)*seg + 1 + uint64(rng.Intn(coldJitter))
		ops = append(ops, read(lsn))
		var walk []uint64
		for s := 0; s < walkSteps; s++ {
			lsn += walkStep
			walk = append(walk, lsn)
			ops = append(ops, read(lsn))
		}
		for v := 0; v < viewRepeats; v++ {
			ops = append(ops, read(walk[len(walk)-1-rng.Intn(viewWindow)]))
		}
		ops = append(ops,
			op{Kind: kTrajectory, Object: objects[rng.Intn(len(objects))], From: lsn, To: lsn + scanWindow},
			op{Kind: kOccupancy, Partition: partitions[rng.Intn(len(partitions))], From: lsn, To: lsn + scanWindow})
	}
	return ops
}

// request is one op encoded for the wire, built before timing starts.
type request struct {
	path string
	body []byte
}

// encode renders op as its endpoint and JSON body. Update bodies come
// pre-encoded from the fixture.
func encode(o op, points []wire.Position, batches []json.RawMessage) (request, error) {
	var (
		path string
		v    any
	)
	switch o.Kind {
	case kRange:
		path, v = wire.PathRangeQuery, wire.RangeBatch{Queries: []wire.RangeQuery{{Q: points[o.Point], R: queryRadius}}}
	case kKNN:
		path, v = wire.PathKNNQuery, wire.KNNBatch{Queries: []wire.KNNQuery{{Q: points[o.Point], K: queryK}}}
	case kUpdate:
		return request{path: wire.PathUpdates, body: batches[o.Batch]}, nil
	case kHistRange:
		path, v = wire.PathHistoryRange, wire.HistoryRangeRequest{Lsn: o.LSN, Q: points[o.Point], R: queryRadius}
	case kHistKNN:
		path, v = wire.PathHistoryKNN, wire.HistoryKNNRequest{Lsn: o.LSN, Q: points[o.Point], K: queryK}
	case kTrajectory:
		path, v = wire.PathHistoryTrajectory, wire.HistoryTrajectoryRequest{Object: o.Object, From: o.From, To: o.To}
	case kOccupancy:
		path, v = wire.PathHistoryOccupancy, wire.HistoryOccupancyRequest{Partition: o.Partition, From: o.From, To: o.To}
	default:
		return request{}, fmt.Errorf("unknown op kind %d", o.Kind)
	}
	body, err := json.Marshal(v)
	return request{path: path, body: body}, err
}

func encodeAll(ops []op, points []wire.Position, batches []json.RawMessage) ([]request, error) {
	reqs := make([]request, len(ops))
	for i, o := range ops {
		r, err := encode(o, points, batches)
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	return reqs, nil
}

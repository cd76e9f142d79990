package main

// Fixtures: the seeded store each workload's daemon recovers, plus the
// pools its script draws from. A fixture is written by the checkout's own
// code (indoorq.Open, Subscribe, Persist, ApplyObjectUpdates), cached
// under a key of workload spec, seed and a hash of the checkout's Go
// sources, and copied afresh for every daemon start — so a parent commit
// and its change each recover a store their own code wrote, and no start
// sees a store another start touched. Generation is never timed.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	indoorq "repro"
	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/object"
	"repro/internal/wire"
)

// spec describes one workload's store.
type spec struct {
	City bench.CityConfig
	// Subs persisted subscriptions, 7 range (r=30) to 1 kNN (k=10), as in
	// bench.NewCityChurn.
	Subs int
	// Batches is the number of update batches pre-encoded for the load.
	Batches int
	// Moves is the number of object moves per batch, logged or loaded.
	Moves int
	// WALBatches move batches are committed to the store's log before it
	// is cached, so the daemon recovers (and history reads) them.
	WALBatches int
}

const (
	poolPoints   = 4096 // query-point pool size
	poolIDs      = 64   // object and partition pool sizes
	keepFixtures = 32   // cached fixtures kept per checkout: ten seeds of each workload
	// walLimit keeps a pre-written log below the store's default 64 MiB
	// compaction threshold, so recovery never prunes history.
	walLimit = 56 << 20
)

// meta is what a script needs from a fixture besides the store.
type meta struct {
	Points     []wire.Position
	Batches    []json.RawMessage // wire.UpdateBatch bodies
	Horizon    uint64            // WrittenLSN of the cached store
	Objects    []int64
	Partitions []int64
}

// fixture is a cached, generated workload store.
type fixture struct {
	dir  string // holds store/ and meta.json
	meta meta
}

func (f *fixture) storeDir() string { return filepath.Join(f.dir, "store") }

// sourceHash digests every Go source and module file of the checkout,
// skipping hidden directories (build outputs live in one).
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// loadFixture returns the cached fixture for (workload, spec, seed,
// sources), generating it on a miss.
func loadFixture(cache, workload string, sp spec, seed int64, srcHash string) (*fixture, error) {
	key := sha256.Sum256([]byte(fmt.Sprintf("%s|%+v|%d|%s", workload, sp, seed, srcHash)))
	dir := filepath.Join(cache, fmt.Sprintf("%s-s%d-%s", workload, seed, hex.EncodeToString(key[:6])))
	f := &fixture{dir: dir}
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		if err := os.MkdirAll(cache, 0o755); err != nil {
			return nil, err
		}
		tmp, err := os.MkdirTemp(cache, "gen-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		m, err := generate(sp, seed, filepath.Join(tmp, "store"))
		if err != nil {
			return nil, fmt.Errorf("generate %s fixture: %w", workload, err)
		}
		if raw, err = json.Marshal(m); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(tmp, "meta.json"), raw, 0o644); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, dir); err != nil {
			return nil, err
		}
		evictFixtures(cache)
		// Hand generation's heap back before anything is timed.
		debug.FreeOSMemory()
	}
	if err := json.Unmarshal(raw, &f.meta); err != nil {
		return nil, fmt.Errorf("fixture meta: %w", err)
	}
	now := time.Now()
	_ = os.Chtimes(dir, now, now) // recency for eviction only
	return f, nil
}

// evictFixtures drops all but the keepFixtures most recently used.
func evictFixtures(cache string) {
	ents, err := os.ReadDir(cache)
	if err != nil {
		return
	}
	type aged struct {
		path string
		mod  int64
	}
	var all []aged
	for _, e := range ents {
		if info, err := e.Info(); err == nil && e.IsDir() && !strings.HasPrefix(e.Name(), "gen-") {
			all = append(all, aged{filepath.Join(cache, e.Name()), info.ModTime().UnixNano()})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mod > all[j].mod })
	for i := keepFixtures; i < len(all); i++ {
		_ = os.RemoveAll(all[i].path)
	}
}

// generate writes a workload store to dir and returns its pools. The
// city layout is the spec's own (the seed formula of bench's city
// fixtures), so every seed serves the same buildings; the seed places
// the objects, the subscriptions, the moves and the query points.
func generate(sp spec, seed int64, dir string) (meta, error) {
	cfg := sp.City
	layout, err := gen.City(gen.CitySpec{
		Rows: cfg.Rows, Cols: cfg.Cols, FloorsMin: cfg.FloorsMin, FloorsMax: cfg.FloorsMax,
		Seed: int64(cfg.Objects)*17 + int64(cfg.Rows*100+cfg.Cols),
	})
	if err != nil {
		return meta{}, err
	}
	objs := gen.Objects(layout.B, gen.ObjectSpec{N: cfg.Objects, Radius: cfg.Radius, Instances: cfg.Instances, Seed: seed})
	db, _, err := indoorq.Open(layout.B, objs, indoorq.Options{})
	if err != nil {
		return meta{}, err
	}
	for i, q := range gen.QueryPoints(layout.B, sp.Subs, seed+1) {
		s := indoorq.SubscriptionSpec{Q: q, R: 30}
		if i%8 == 7 {
			s = indoorq.SubscriptionSpec{Q: q, K: 10}
		}
		if _, _, err := db.Subscribe(s); err != nil {
			return meta{}, err
		}
	}
	if err := db.Persist(dir, indoorq.DurabilityOptions{}); err != nil {
		return meta{}, err
	}
	var m meta
	for _, q := range gen.QueryPoints(layout.B, poolPoints, seed+2) {
		m.Points = append(m.Points, wire.PositionOf(q))
	}
	rng := rngFor(seed, "fixture")
	for i := 0; i < poolIDs; i++ {
		m.Objects = append(m.Objects, int64(objs[rng.Intn(len(objs))].ID))
		parts := layout.B.Partitions()
		m.Partitions = append(m.Partitions, int64(parts[rng.Intn(len(parts))].ID))
	}
	moves := rngFor(seed, "moves")
	for i := 0; i < sp.WALBatches; i++ {
		if err := db.ApplyObjectUpdates(moveBatch(moves, db, objs, cfg, sp.Moves)); err != nil {
			return meta{}, err
		}
	}
	for i := 0; i < sp.Batches; i++ {
		body, err := encodeBatch(moveBatch(moves, db, objs, cfg, sp.Moves))
		if err != nil {
			return meta{}, err
		}
		m.Batches = append(m.Batches, body)
	}
	if sz := db.WALSize(); sz > walLimit {
		return meta{}, fmt.Errorf("pre-written log is %d bytes, over the %d-byte limit", sz, walLimit)
	}
	m.Horizon = db.Store().WrittenLSN()
	return m, db.Close()
}

// moveBatch re-reports n distinct objects jittered up to 15 m
// around their original centres, as bench.NewCityChurn does: the load is
// statistically stationary whichever batches run.
func moveBatch(rng *rand.Rand, db *indoorq.DB, objs []*object.Object, cfg bench.CityConfig, n int) []indoorq.ObjectUpdate {
	batch := make([]indoorq.ObjectUpdate, 0, n)
	seen := make(map[object.ID]bool, n)
	for len(batch) < n {
		o := objs[rng.Intn(len(objs))]
		if seen[o.ID] {
			continue
		}
		seen[o.ID] = true
		c := o.Center
		next := indoorq.Pos(c.Pt.X+rng.Float64()*30-15, c.Pt.Y+rng.Float64()*30-15, c.Floor)
		if db.LocatePartition(next) < 0 {
			next = c
		}
		batch = append(batch, indoorq.ObjectUpdate{
			Op: indoorq.UpdateMove, Object: object.SampleGaussian(rng, o.ID, next, cfg.Radius, cfg.Instances),
		})
	}
	return batch
}

func encodeBatch(ups []indoorq.ObjectUpdate) (json.RawMessage, error) {
	var b wire.UpdateBatch
	for _, u := range ups {
		item, err := wire.UpdateItemOf(u)
		if err != nil {
			return nil, err
		}
		b.Updates = append(b.Updates, item)
	}
	return json.Marshal(b)
}

// copyStore makes a fresh private copy of a fixture store.
func copyStore(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	// Flushed now, so the kernel's deferred writeback of the copy never
	// lands inside a timed phase.
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

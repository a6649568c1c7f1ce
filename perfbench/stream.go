package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/backlogfs/backlog"
	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/fsim"
	"github.com/backlogfs/backlog/internal/workload"
)

// opcode names one call the replay makes into backlog.DB.
type opcode uint8

const (
	opAdd          opcode = iota // AddRef(ref, cp)
	opRemove                     // RemoveRef(ref, cp)
	opQuery                      // Query(block)
	opRelocate                   // RelocateBlock(block, relocBase+ino)
	opSnapshot                   // Catalog().CreateSnapshot(line, block)
	opDropSnapshot               // Catalog().DeleteSnapshot(line, block)
	opClone                      // Catalog().CreateClone(ino, line, block)
	opDropLine                   // Catalog().DeleteLine(line)
	opCheckpoint                 // Checkpoint(block)
	opMaintain                   // Maintain()
)

// relocBase is the first block number relocation targets use. fsim never
// allocates that high, so a relocated block cannot collide with a fresh
// allocation.
const relocBase = uint64(1) << 40

// event is one generated input. It is pointer-free, so a stream of
// millions of events costs the garbage collector nothing to scan. The
// fields carry a Ref and its consistency point for updates, and the
// operands listed next to each opcode otherwise.
type event struct {
	block          uint64
	ino, off, line uint32
	cp             uint32
	op             opcode
}

func (e event) ref() backlog.Ref {
	return backlog.Ref{Block: e.block, Inode: uint64(e.ino), Offset: uint64(e.off), Line: uint64(e.line), Length: 1}
}

func (e event) isUpdate() bool { return e.op == opAdd || e.op == opRemove }

// stream is a workload's generated input plus the ground truth the file
// system simulator holds once every event has been applied.
type stream struct {
	events []event
	truth  *truth
	// preload counts the leading events a workload replays during setup.
	preload int
}

// recorder is the fsim.RefTracker that turns the simulator's callbacks
// into events. Catalog transitions are not reported by fsim; the recorder
// finds them by diffing the shared catalog at every checkpoint and
// whenever a reference names a line it has not seen.
type recorder struct {
	cat    *core.MemCatalog
	events []event
	lines  map[uint64]catLine

	err error // the first catalog diff that failed inside a callback
}

// catLine mirrors the catalog's serialized line record.
type catLine struct {
	ID        uint64   `json:"id"`
	Live      bool     `json:"live"`
	Parent    uint64   `json:"parent"`
	Base      uint64   `json:"base"`
	HasParent bool     `json:"has_parent"`
	Snapshots []uint64 `json:"snapshots"`
}

func newRecorder(cat *core.MemCatalog) *recorder {
	return &recorder{cat: cat, lines: map[uint64]catLine{0: {ID: 0, Live: true}}}
}

func (r *recorder) update(op opcode, ref core.Ref, cp uint64) {
	if _, ok := r.lines[ref.Line]; !ok {
		if err := r.diffCatalog(); err != nil && r.err == nil {
			r.err = err
		}
	}
	r.events = append(r.events, event{block: ref.Block, ino: uint32(ref.Inode), off: uint32(ref.Offset), line: uint32(ref.Line), cp: uint32(cp), op: op})
}

// AddRef implements fsim.RefTracker.
func (r *recorder) AddRef(ref core.Ref, cp uint64) { r.update(opAdd, ref, cp) }

// RemoveRef implements fsim.RefTracker.
func (r *recorder) RemoveRef(ref core.Ref, cp uint64) { r.update(opRemove, ref, cp) }

// Checkpoint implements fsim.RefTracker.
func (r *recorder) Checkpoint(cp uint64) error {
	if err := r.diffCatalog(); err != nil {
		return err
	}
	r.events = append(r.events, event{block: cp, op: opCheckpoint})
	return nil
}

// diffCatalog emits the catalog calls that take the replayed catalog from
// the last recorded state to the simulator's current one, in the order
// the generators make them: clones, line deletions, snapshot creations,
// snapshot deletions. A deleted snapshot that still has clones turns into
// a zombie in both catalogs alike.
func (r *recorder) diffCatalog() error {
	raw, err := r.cat.MarshalJSON()
	if err != nil {
		return err
	}
	var cur struct {
		Lines []catLine `json:"lines"`
	}
	if err := json.Unmarshal(raw, &cur); err != nil {
		return fmt.Errorf("decoding catalog: %w", err)
	}
	var clones, drops, snaps, unsnaps []event
	for _, l := range cur.Lines {
		old, known := r.lines[l.ID]
		if !known {
			if !l.HasParent {
				return fmt.Errorf("catalog line %d appeared without a parent", l.ID)
			}
			clones = append(clones, event{ino: uint32(l.ID), line: uint32(l.Parent), block: l.Base, op: opClone})
			old = catLine{ID: l.ID, Live: true}
		}
		if old.Live && !l.Live {
			drops = append(drops, event{line: uint32(l.ID), op: opDropLine})
		}
		for _, v := range l.Snapshots {
			if !contains(old.Snapshots, v) {
				snaps = append(snaps, event{line: uint32(l.ID), block: v, op: opSnapshot})
			}
		}
		for _, v := range old.Snapshots {
			if !contains(l.Snapshots, v) {
				unsnaps = append(unsnaps, event{line: uint32(l.ID), block: v, op: opDropSnapshot})
			}
		}
		r.lines[l.ID] = l
	}
	for _, evs := range [][]event{clones, drops, snaps, unsnaps} {
		r.events = append(r.events, evs...)
	}
	return nil
}

func contains(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// synthetic generates the paper's synthetic workload (Section 6.2.1):
// preloadCPs + cps checkpoints of opsPerCP block operations with 10%
// deduplication, snapshot rotation and writable clones, followed by one
// more checkpoint's updates whose Checkpoint call is left out, so the
// replayed database ends with un-checkpointed updates in its write store
// and write-ahead log.
func synthetic(seed int64, opsPerCP, preloadCPs, cps int) (*stream, error) {
	cat := core.NewMemCatalog()
	rec := newRecorder(cat)
	fs := fsim.New(fsim.Config{Tracker: rec, Catalog: cat, DedupRate: 0.10, Seed: seed})
	cfg := workload.DefaultSyntheticConfig(opsPerCP)
	cfg.Seed = seed
	gen := workload.NewSynthetic(fs, cfg)
	s := &stream{}
	for i := 0; i < preloadCPs+cps+1; i++ {
		if i == preloadCPs {
			s.preload = len(rec.events)
		}
		if _, _, err := gen.RunCP(); err != nil {
			return nil, fmt.Errorf("synthetic CP %d: %w", i, err)
		}
	}
	if rec.err != nil {
		return nil, rec.err
	}
	var err error
	if s.events, err = withoutLastCheckpoint(rec.events); err != nil {
		return nil, err
	}
	s.truth = newTruth(fs)
	return s, nil
}

// withoutLastCheckpoint drops a stream's final Checkpoint call, so the
// replayed database ends with un-checkpointed updates in its write store
// and write-ahead log, which every reopen of the recovery database
// replays.
func withoutLastCheckpoint(evs []event) ([]event, error) {
	last := len(evs) - 1
	if last < 0 || evs[last].op != opCheckpoint {
		return nil, fmt.Errorf("stream does not end with a checkpoint")
	}
	return evs[:last], nil
}

// churnConfig sizes the trace-driven churn stream. README.md gives the
// source of each default.
type churnConfig struct {
	hours          int     // trace hours replayed
	preloadHours   int     // leading hours replayed during setup
	opsPerHour     int     // mean trace operations in a busy hour
	cpsPerHour     int     // checkpoints per trace hour
	maintainHours  int     // hours between maintenance points
	querySet       int     // queries in one set of a maintenance point
	runLengths     []int   // sorted-run lengths, one query set each
	clonesPer100CP float64 // expected clone creations per 100 checkpoints
	cloneLifeCPs   int     // clone lifetime in checkpoints
	relocRun       int     // blocks relocated at each maintenance point
}

// churn generates the EECS03-like trace workload (Section 6.2.2): the
// paper's hourly load swings and truncate-heavy span, replayed with
// hourly snapshot rotation by the trace player, plus writable clones at
// the synthetic workload's rate. Every maintenanceHours hours comes a
// maintenance point in the protocol of the paper's Figure 10: a set of
// queries in sorted runs measures the stale database, DB.Maintain runs,
// a second set measures it maintained, and then a defragmenter relocates
// one sorted run of blocks. The stream's final Checkpoint call is left
// out.
func churn(seed int64, cc churnConfig) (*stream, error) {
	cat := core.NewMemCatalog()
	rec := newRecorder(cat)
	fs := fsim.New(fsim.Config{Tracker: rec, Catalog: cat, DedupRate: 0.10, Seed: seed})
	tcfg := workload.DefaultTraceConfig(cc.opsPerHour)
	tcfg.Hours = cc.hours
	// Keep the paper's truncate-heavy span at the same relative position
	// of the shortened trace (hours 200-250 of 384).
	tcfg.SetattrSpan = [2]int{cc.hours * 200 / 384, cc.hours * 250 / 384}
	tcfg.Seed = seed
	ops := workload.GenerateTrace(tcfg)
	player := workload.NewPlayer(fs, cc.cpsPerHour, seed)
	rng := rand.New(rand.NewSource(seed ^ 0xc10e))
	// The synthetic workload's clone rate and lifetime, per checkpoint,
	// converted to the trace's hours.
	clonePerHour := cc.clonesPer100CP * float64(cc.cpsPerHour) / 100
	cloneHours := (cc.cloneLifeCPs + cc.cpsPerHour - 1) / cc.cpsPerHour

	type clone struct{ line, expires uint64 }
	var clones []clone
	var relocated uint32
	s := &stream{}
	for h, i := 0, 0; h < cc.hours; h++ {
		if h == cc.preloadHours {
			s.preload = len(rec.events)
		}
		j := i
		for j < len(ops) && ops[j].Hour == h {
			j++
		}
		if _, err := player.PlayHour(h, ops[i:j]); err != nil {
			return nil, fmt.Errorf("trace hour %d: %w", h, err)
		}
		i = j

		// Clone rotation: clone the newest snapshot of line 0, dirty a
		// few of the clone's blocks, destroy clones that expired.
		var keep []clone
		for _, c := range clones {
			if uint64(h) < c.expires {
				keep = append(keep, c)
				continue
			}
			if err := fs.DeleteLine(c.line); err != nil {
				return nil, err
			}
		}
		clones = keep
		if rng.Float64() < clonePerHour {
			line, err := cloneNewest(fs, rng)
			if err != nil {
				return nil, err
			}
			if line != 0 {
				clones = append(clones, clone{line: line, expires: uint64(h + cloneHours)})
			}
		}

		if (h+1)%cc.maintainHours != 0 {
			continue
		}
		blocks := fs.AllocatedBlocks()
		rec.events = appendQuerySets(rec.events, blocks, rng, cc.querySet, cc.runLengths)
		rec.events = append(rec.events, event{op: opMaintain})
		rec.events = appendQuerySets(rec.events, blocks, rng, cc.querySet, cc.runLengths)
		// The defragmenter works on the freshly maintained database. Its
		// relocations hold off compaction until the next checkpoint has
		// made them durable, so it runs after the pass, not before.
		for _, run := range sortedRuns(blocks, rng, cc.relocRun, cc.relocRun) {
			for _, old := range run {
				fs.RelocateBlock(old, relocBase+uint64(relocated))
				rec.events = append(rec.events, event{block: old, ino: relocated, op: opRelocate})
				relocated++
			}
		}
	}
	// Flush the clone writes and relocations of the last hour; this
	// Checkpoint call is the one the stream leaves out.
	if _, err := fs.Checkpoint(); err != nil {
		return nil, err
	}
	if rec.err != nil {
		return nil, rec.err
	}
	var err error
	if s.events, err = withoutLastCheckpoint(rec.events); err != nil {
		return nil, err
	}
	s.truth = newTruth(fs)
	return s, nil
}

// sortedRuns draws the query pattern of the paper's Figures 9 and 10 (as
// internal/experiments measureQueries issues it): runs of runLength
// consecutive entries of the ascending allocated-block list, each
// starting at a uniformly drawn position, until total blocks are
// covered. A run is never cut short by the end of the list; it starts
// early enough to fit instead of wrapping around.
func sortedRuns(blocks []uint64, rng *rand.Rand, total, runLength int) [][]uint64 {
	runLength = min(runLength, len(blocks))
	var runs [][]uint64
	for n := 0; n < total && runLength > 0; n += runLength {
		start := rng.Intn(len(blocks) - runLength + 1)
		runs = append(runs, blocks[start:start+min(runLength, total-n)])
	}
	return runs
}

// appendQuerySets appends one set of point queries per run length.
func appendQuerySets(evs []event, blocks []uint64, rng *rand.Rand, total int, runLengths []int) []event {
	for _, l := range runLengths {
		for _, run := range sortedRuns(blocks, rng, total, l) {
			for _, b := range run {
				evs = append(evs, event{block: b, op: opQuery})
			}
		}
	}
	return evs
}

// cloneNewest clones line 0's newest snapshot and rewrites three blocks
// of the clone, as the synthetic generator's clones do. It returns 0 when
// line 0 has no snapshot yet.
func cloneNewest(fs *fsim.FS, rng *rand.Rand) (uint64, error) {
	l, _ := fs.Line(0)
	var base uint64
	for v := range l.Snapshots {
		base = max(base, v)
	}
	if base == 0 {
		return 0, nil
	}
	line, err := fs.Clone(0, base)
	if err != nil {
		return 0, err
	}
	inos, err := fs.LiveFiles(line)
	if err != nil {
		return 0, err
	}
	for k := 0; k < 3 && len(inos) > 0; k++ {
		ino := inos[rng.Intn(len(inos))]
		n, err := fs.FileLen(line, ino)
		if err != nil || n == 0 {
			continue
		}
		if err := fs.WriteFile(line, ino, uint64(rng.Intn(int(n))), 1); err != nil {
			return 0, err
		}
	}
	return line, nil
}

package core

import (
	"errors"
	"fmt"
	"sort"

	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

// compactRetries is how many optimistic lock-free attempts a full job
// makes before falling back to holding the structural lock exclusively
// for the whole merge — the pessimistic mode cannot conflict, so every
// compaction eventually makes progress even under a constant stream of
// checkpoints and relocations.
const compactRetries = 4

// Compact runs database maintenance on every partition (Section 5.2): it
// merges all read-store runs, precomputes the Combined table by joining
// From and To, purges records that refer only to deleted snapshots, and
// physically drops deletion-vector entries. Afterwards each partition holds
// at most one Combined run (complete records) and one From run (incomplete
// records), and the To table is empty.
//
// Partitions are maintained independently: a failure in one partition does
// not stop the pass, and the joined error reports every partition that
// failed. Stats.Compactions counts partitions actually compacted.
//
// While any deletion vector carries unpersisted entries (a block
// relocation since the last checkpoint), compaction is deferred — the
// records those entries hide must not be physically destroyed before the
// re-keyed replacements buffered in the write stores are durable. Call
// Checkpoint first (the background maintainer runs after checkpoints, so
// it sees the persisted state naturally).
//
// Under Options.Retention == RetainLive, Compact runs in tiered mode
// (CompactTiered): merging a sealed run across the reclaim horizon would
// destroy the disjoint CP windows that let Expire reclaim it for free.
func (e *Engine) Compact() error {
	return e.compactAll(e.expiryEnabled())
}

// CompactTiered is Compact in CP-tiered mode: Combined runs that are
// sealed — level >= 1, trustworthy CP window, no override records — are
// left untouched instead of being re-merged, so their windows stay
// disjoint and a later Expire can drop them whole once the reclaim
// horizon passes their MaxCP. Everything else (From, To, unsealed
// Combined runs, the override run) merges exactly as in Compact; the
// merged Combined output is split so override records land in their own
// run, keeping the regular output sealed. The background maintainer uses
// this mode when Options.Retention is RetainLive.
func (e *Engine) CompactTiered() error {
	return e.compactAll(true)
}

func (e *Engine) compactAll(tiered bool) error {
	var errs []error
	for p := 0; p < e.db.Partitions(); p++ {
		if err := e.compactFull(p, tiered); err != nil {
			errs = append(errs, fmt.Errorf("core: compacting partition %d: %w", p, err))
		}
	}
	return errors.Join(errs...)
}

// CompactPartition compacts a single partition; partitions can be
// maintained selectively and independently (Section 5.3). Like Compact,
// it merges in tiered mode under Options.Retention == RetainLive.
func (e *Engine) CompactPartition(p int) error {
	return e.compactFull(p, e.expiryEnabled())
}

// compactFull runs a Full job on partition p and counts it in
// Stats.Compactions when it installed a merge.
func (e *Engine) compactFull(p int, tiered bool) error {
	installed, err := e.compactJob(CompactionJob{Partition: p, Full: true}, tiered)
	if installed {
		e.stats.compactions.Add(1)
	}
	return err
}

// dvDirty reports whether any table carries unpersisted deletion-vector
// entries. Callers hold the structural lock (shared suffices).
func (e *Engine) dvDirty() bool {
	for _, table := range []string{TableFrom, TableTo, TableCombined} {
		if e.db.Table(table).DVDirty() {
			return true
		}
	}
	return false
}

// groupRecs is one identity group pulled from the three merged streams.
type groupRecs struct {
	id        Ref // identity fields only (CP fields zero)
	froms     []uint64
	tos       []uint64
	combineds []interval
}

// isSealed reports whether a Combined run is sealed: already compacted
// (level >= 1), with a trustworthy CP window, and free of override
// records. Tiered compaction never re-merges a sealed run — re-merging
// would union its window with newer records and push the result's MaxCP
// past the horizon forever, so nothing would ever expire.
func isSealed(r *lsm.Run) bool {
	return r.Level() >= 1 && r.CPWindowKnown() && r.Overrides() == 0
}

// compactJob executes one CompactionJob and reports whether it installed
// a merge. The k-way merge and run building happen against a pinned view
// with no structural lock held, so updates and queries proceed during the
// bulk of the work; the lock is taken exclusively only to validate the
// inputs and atomically install the manifest edit. tiered selects
// CP-tiered mode (see CompactTiered): sealed Combined runs stay out of a
// Full job, and override records go to a run of their own.
//
// A Full job that meets a conflicting checkpoint, relocation, or
// concurrent compaction retries against a fresh view, and after
// compactRetries conflicts falls back to running entirely under the
// exclusive lock. A leveled job that is stale (an input run was consumed
// since planning), deferred (dirty deletion vector), or conflicting
// returns installed=false instead, so the scheduler re-plans rather than
// retrying the same job.
func (e *Engine) compactJob(job CompactionJob, tiered bool) (bool, error) {
	if o := e.obs; o != nil {
		// Trace events reuse the Shard field for the partition — the
		// closest analogue of "which slice of the keyspace" for a
		// compaction.
		start := o.opStart(obs.OpCompact, job.Partition, 0, 0)
		installed, err := e.compactJobLoop(job, tiered)
		o.opEnd(obs.OpCompact, job.Partition, 0, 0, start, o.compact, err)
		return installed, err
	}
	return e.compactJobLoop(job, tiered)
}

func (e *Engine) compactJobLoop(job CompactionJob, tiered bool) (bool, error) {
	for attempt := 0; ; attempt++ {
		exclusive := job.Full && attempt >= compactRetries
		installed, conflict, err := e.attemptJob(job, tiered, exclusive)
		if err != nil || !conflict || !job.Full {
			return installed, err
		}
	}
}

// attemptJob performs one merge-and-install attempt of job. With
// exclusive=false the structural lock is held only to pin the view and,
// later, to validate + install; conflict=true then reports that the
// inputs moved under the merge. With exclusive=true the checkpoint
// single-flight guard is taken first — so the merge cannot interleave
// with the window in which a checkpoint's write stores are frozen but its
// runs are uninstalled — and the structural lock is then held throughout,
// so validation is unnecessary and the attempt cannot conflict.
func (e *Engine) attemptJob(job CompactionJob, tiered, exclusive bool) (installed, conflict bool, err error) {
	p := job.Partition
	if exclusive {
		e.cpMu.Lock()
		defer e.cpMu.Unlock()
		e.mu.Lock()
	} else {
		e.mu.RLock()
	}
	locked := exclusive
	// A dirty deletion vector defers compaction of the whole table set: the
	// unpersisted entries hide records whose re-keyed replacements (block
	// relocation) still sit in the volatile write stores. Physically purging
	// the hidden records and durably clearing their entries now would make
	// the destruction durable while the replacements are not — a crash then
	// loses the references outright, and the relocation's WAL record cannot
	// re-transplant records that no longer exist in any run. The next
	// checkpoint persists vector and replacements together, after which
	// compaction proceeds (the maintainer is kicked after every checkpoint).
	if e.dvDirty() {
		if exclusive {
			e.mu.Unlock()
		} else {
			e.mu.RUnlock()
		}
		return false, false, nil
	}
	v := e.db.AcquireView()
	if !exclusive {
		e.mu.RUnlock()
	}
	defer func() {
		if locked {
			e.mu.Unlock()
		}
		v.Release()
	}()

	if job.Full {
		// A Full job merges the partition as this view pins it: every From
		// and To run, and every Combined run but the sealed ones in tiered
		// mode, into level 1.
		job.From, job.To, job.Combined = v.Runs(TableFrom, p), v.Runs(TableTo, p), v.Runs(TableCombined, p)
		if tiered {
			var unsealed []*lsm.Run
			for _, r := range job.Combined {
				if !isSealed(r) {
					unsealed = append(unsealed, r)
				}
			}
			job.Combined = unsealed
		}
		job.OutputLevel = 1
		if len(job.From) == 0 && len(job.To) == 0 && len(job.Combined) <= 1 {
			// Nothing to merge; at most the single compacted Combined run (in
			// tiered mode, possibly plus sealed runs awaiting expiry).
			return false, false, nil
		}
	} else if !viewHasRuns(v, TableFrom, p, job.From) ||
		!viewHasRuns(v, TableTo, p, job.To) ||
		!viewHasRuns(v, TableCombined, p, job.Combined) {
		// The job was planned against an earlier, already-released view;
		// its run pointers are only safe to read while live in this one.
		return false, false, nil
	}
	tables := [3]string{TableFrom, TableTo, TableCombined}
	inputs := [3][]*lsm.Run{job.From, job.To, job.Combined}

	var streams [3]*recStream
	for i, table := range tables {
		it, err := v.MergedIterOf(table, inputs[i])
		if err != nil {
			return false, false, err
		}
		streams[i] = &recStream{it: it}
	}
	for _, s := range streams {
		if err := s.advance(); err != nil {
			return false, false, err
		}
	}

	// Builders open in the order From, [To], Combined, [override]: each
	// allocates a file ID, so the order fixes every output's name. A Full
	// job's join is final and emits no To records, so it opens no To
	// builder. Tiered mode writes surviving override records to a run of
	// their own: overrides must outlive their line's snapshots, so mixing
	// them into the regular output would poison its droppability. The
	// override run (Overrides > 0) is re-merged on every tiered pass, which
	// is also what purges overrides once their line is fully gone.
	var builders []*lsm.RunBuilder
	abort := func(err error) (bool, bool, error) {
		for _, b := range builders {
			b.Abort()
		}
		return false, false, err
	}
	open := func(table string) (*lsm.RunBuilder, error) {
		b, err := e.db.NewRunBuilder(table, p, job.OutputLevel, v.CP(), storage.SrcCompaction)
		if err == nil {
			builders = append(builders, b)
		}
		return b, err
	}
	var newTo, newComb, newOver *lsm.RunBuilder
	newFrom, err := open(TableFrom)
	if err == nil && !job.Full {
		newTo, err = open(TableTo)
	}
	if err == nil {
		newComb, err = open(TableCombined)
	}
	if err == nil && tiered {
		newOver, err = open(TableCombined)
	}
	if err != nil {
		return abort(err)
	}

	// Purged records are counted locally and added to the stats only once
	// the attempt installs, so conflict retries do not double-count.
	var purged uint64
	for {
		g, ok, err := nextGroup(streams[0], streams[1], streams[2])
		if err != nil {
			return abort(err)
		}
		if !ok {
			break
		}
		if err := e.emitGroup(g, job.Full, newFrom, newTo, newComb, newOver, &purged); err != nil {
			return abort(err)
		}
	}

	// Finish the run files (bloom + header + sync) before taking the
	// lock: file I/O stays out of the critical section.
	var added []lsm.RunRef
	for i, b := range builders {
		ref, ok, err := b.Finish()
		if err != nil {
			for _, rest := range builders[i:] {
				rest.Abort()
			}
			for _, r := range added {
				e.db.DiscardRun(r)
			}
			return false, false, err
		}
		if ok {
			added = append(added, ref)
		}
	}

	if !exclusive {
		e.mu.Lock()
		locked = true
		// A Full job's inputs are the whole partition, so any change to its
		// run set invalidates the merge. A leveled job tolerates runs added
		// outside its inputs (a checkpoint's level-0 flush).
		for i, table := range tables {
			if (job.Full && v.Unchanged(table, p)) || (!job.Full && v.UnchangedRuns(table, p, inputs[i])) {
				continue
			}
			// An input run or a deletion vector moved under the merge: the
			// built runs describe a stale state. Discard them.
			for _, r := range added {
				e.db.DiscardRun(r)
			}
			e.stats.compactConflicts.Add(1)
			return false, true, nil
		}
	}

	// Install. The inputs are still live (validated above, or the lock was
	// held throughout). Deletion-vector entries whose records lived in the
	// inputs were consumed by the merge (the outputs are DV-filtered);
	// entries that may target a run outside the job — a sealed run, or a
	// level the job did not touch — must survive. dvGen was validated, so
	// every entry targets a run the view knows about.
	edit := e.db.NewEdit().SetSource(storage.SrcCompaction)
	for _, ref := range added {
		edit.AddRun(ref)
	}
	var cleared [3][]string
	for i, table := range tables {
		for _, r := range inputs[i] {
			edit.DropRun(table, r.Name())
		}
		cleared[i] = e.db.Table(table).ClearDVPartitionKeep(p, keepOutside(v.Runs(table, p), inputs[i]))
		edit.FlushDV(table)
	}
	if err := edit.Commit(); err != nil {
		// The commit did not land (a failed Commit removes its added run
		// files itself): the old runs are still live, so the deletion
		// vectors that hide their dead records must come back.
		for i, table := range tables {
			e.db.Table(table).RestoreDV(cleared[i])
		}
		return false, false, err
	}
	e.stats.recordsPurged.Add(purged)
	e.stats.compactWriteBytes.Add(addedBytes(added))
	return true, false, nil
}

// keepOutside returns the deletion-vector keep predicate for a merge of
// inputs out of a partition's runs: true for blocks inside the range of
// some run the merge did not rewrite. It is nil when the merge consumed
// every run.
func keepOutside(runs, inputs []*lsm.Run) func(block uint64) bool {
	var others []*lsm.Run
	for _, r := range runs {
		if !containsRun(inputs, r) {
			others = append(others, r)
		}
	}
	if len(others) == 0 {
		return nil
	}
	return func(block uint64) bool {
		for _, r := range others {
			if block >= r.MinBlock() && block <= r.MaxBlock() {
				return true
			}
		}
		return false
	}
}

func containsRun(runs []*lsm.Run, r *lsm.Run) bool {
	for _, x := range runs {
		if x == r {
			return true
		}
	}
	return false
}

// addedBytes sums the physical size of freshly installed compaction
// outputs — the numerator of measured write amplification.
func addedBytes(added []lsm.RunRef) uint64 {
	var n int64
	for _, r := range added {
		n += r.SizeBytes()
	}
	return uint64(n)
}

// viewHasRuns reports whether every run in inputs is present in the
// view's pinned list for (table, partition) — the read-safety check a
// job executor performs after re-pinning: membership keeps the run file
// alive for the duration of the view.
func viewHasRuns(v *lsm.View, table string, p int, inputs []*lsm.Run) bool {
	live := v.Runs(table, p)
	for _, in := range inputs {
		if !containsRun(live, in) {
			return false
		}
	}
	return true
}

// emitGroup writes one identity group of a merge. Each To, ascending,
// pairs with the earliest unused From <= it — joinGroup's rule; since Tos
// are processed in order, that From is always froms[fi] — and a pair at
// one CP cancels. Completed pairs and pre-joined Combined records are
// globally correct, so the purge policy applies to them; surviving
// override records (from == 0) go to newOver when it is non-nil (tiered
// mode), keeping the regular Combined output sealed. Purged records are
// tallied into *purged.
//
// Under fullJoin the group holds every record of its identity, so the
// join is final: a lone To becomes the override interval {0, t} — the
// inherited ownership it terminated — and a lone From is a still-live
// reference, purge-checked into the From output. Otherwise (a leveled
// job, which sees only its input runs) lone records are carried verbatim
// to the output level: a level merge always inputs every run of its level
// and levels partition flush history into contiguous, monotonically
// ordered segments, so the pairs it forms are exactly those the full join
// would, while synthesizing an override for a lone To or purging a lone
// From would corrupt the eventual join with the counterpart record still
// climbing the levels in another run.
func (e *Engine) emitGroup(g groupRecs, fullJoin bool, newFrom, newTo, newComb, newOver *lsm.RunBuilder, purged *uint64) error {
	line := g.id.Line
	froms, tos := g.froms, g.tos
	sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
	sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })

	var complete []interval
	var loneTos []uint64
	fi := 0
	for _, t := range tos {
		switch {
		case fi < len(froms) && froms[fi] <= t:
			if froms[fi] < t {
				complete = append(complete, interval{from: froms[fi], to: t})
			}
			fi++
		case fullJoin:
			complete = append(complete, interval{from: 0, to: t})
		default:
			loneTos = append(loneTos, t)
		}
	}

	for _, iv := range dedupeIntervals(append(complete, g.combineds...)) {
		if !e.keepInterval(line, iv.from, iv.to) {
			*purged++
			continue
		}
		dst := newComb
		if newOver != nil && iv.from == 0 {
			dst = newOver
		}
		if err := dst.Add(EncodeCombined(CombinedRec{Ref: g.id, From: iv.from, To: iv.to})); err != nil {
			return err
		}
	}
	for _, f := range froms[fi:] {
		if fullJoin && !e.keepInterval(line, f, Infinity) {
			*purged++
			continue
		}
		if err := newFrom.Add(EncodeFrom(FromRec{Ref: g.id, From: f})); err != nil {
			return err
		}
	}
	for _, t := range loneTos {
		if err := newTo.Add(EncodeTo(ToRec{Ref: g.id, To: t})); err != nil {
			return err
		}
	}
	return nil
}

// keepInterval decides whether a record with validity [from, to) on line
// must survive compaction. It survives when any retained snapshot falls in
// the interval, when the line's live file system still holds the reference,
// when a clone base (including zombie snapshots) inside the interval pins
// it for inheritance, or when it is an override record (from == 0) of a
// line that is still needed — purging an override would resurrect
// inheritance the file system explicitly terminated.
func (e *Engine) keepInterval(line, from, to uint64) bool {
	cat := e.catalog
	if len(cat.SnapshotsIn(line, from, to)) > 0 {
		return true
	}
	if to == Infinity && cat.IsLive(line) {
		return true
	}
	if cat.PinnedIn(line, from, to) {
		return true
	}
	if from == 0 {
		// Override record: keep while the line can still inherit.
		if cat.IsLive(line) || len(cat.SnapshotsIn(line, 0, Infinity)) > 0 ||
			cat.PinnedIn(line, 0, Infinity) {
			return true
		}
	}
	return false
}

// recStream is a peekable decoded record stream used by the group merge.
type recStream struct {
	it  lsm.RecIter
	cur []byte
	ok  bool
}

func (s *recStream) advance() error {
	rec, ok, err := s.it.Next()
	if err != nil {
		return err
	}
	if !ok {
		s.ok = false
		s.cur = nil
		return nil
	}
	s.cur = append(s.cur[:0], rec...)
	s.ok = true
	return nil
}

// curIdentity decodes the identity prefix of the stream head.
func (s *recStream) curIdentity() Ref {
	return getRef(s.cur)
}

// nextGroup pulls the smallest-identity group across the three streams.
func nextGroup(fs, ts, cs *recStream) (groupRecs, bool, error) {
	var minID Ref
	found := false
	consider := func(s *recStream) {
		if !s.ok {
			return
		}
		id := s.curIdentity()
		if !found || compareRef(id, minID) < 0 {
			minID = id
			found = true
		}
	}
	consider(fs)
	consider(ts)
	consider(cs)
	if !found {
		return groupRecs{}, false, nil
	}

	g := groupRecs{id: minID}
	for fs.ok && compareRef(fs.curIdentity(), minID) == 0 {
		g.froms = append(g.froms, DecodeFrom(fs.cur).From)
		if err := fs.advance(); err != nil {
			return groupRecs{}, false, err
		}
	}
	for ts.ok && compareRef(ts.curIdentity(), minID) == 0 {
		g.tos = append(g.tos, DecodeTo(ts.cur).To)
		if err := ts.advance(); err != nil {
			return groupRecs{}, false, err
		}
	}
	for cs.ok && compareRef(cs.curIdentity(), minID) == 0 {
		c := DecodeCombined(cs.cur)
		g.combineds = append(g.combineds, interval{from: c.From, to: c.To})
		if err := cs.advance(); err != nil {
			return groupRecs{}, false, err
		}
	}
	return g, true, nil
}

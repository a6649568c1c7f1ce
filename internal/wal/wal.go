// Package wal implements Backlog's group-committed write-ahead log.
//
// The paper makes back-reference updates durable only at consistency
// points: everything buffered in the write stores since the last
// checkpoint is lost on a crash, exactly like file-system state past the
// last consistency point (Section 5.4 assumes the file system's own
// journal replays the lost operations). This package closes that gap for
// deployments without such a journal: reference updates are appended to a
// checksummed, length-prefixed log before they enter the write stores, and
// the engine replays the log tail on open.
//
// # Record format
//
// Each record is framed as a 4-byte big-endian payload length, a 4-byte
// CRC-32C of the payload, and the payload itself (an op byte — AddRef,
// RemoveRef, Relocate, or a Checkpoint mark — followed by the op's fields
// as big-endian uint64s). The log is a sequence of segments
// (wal-<index>.seg, rotated at Options.SegmentBytes) so that truncation
// after a checkpoint is file deletion, not in-place rewriting. Recovery
// tolerates a torn final record: a crash mid-append costs only the record
// that was never acknowledged.
//
// # Group commit
//
// Append is safe for concurrent use and group-commits: the first appender
// to find no flush in flight becomes the leader, takes the entire pending
// buffer, and writes it with one WriteAt (plus one Sync when the log is in
// Sync mode) while later appenders buffer behind it and wait on the flush
// notification. When the leader finishes it wakes the waiters; one of them
// becomes the next leader and flushes everything that accumulated in the
// meantime. Under W concurrent writers one fsync therefore covers O(W)
// appends, which is what makes per-operation durability affordable on the
// sharded write path (see BenchmarkWALAppend and the fsimbench "wal"
// experiment).
package wal

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

// Durability selects when reference updates become crash-durable.
type Durability int

const (
	// CheckpointOnly disables the log: updates are durable only at
	// consistency points, the paper's behavior. Buffered references are
	// discarded on crash or Close.
	CheckpointOnly Durability = iota
	// Buffered appends every update to the log without fsync. A clean
	// Close preserves everything; a crash may lose updates since the last
	// segment sync, but never corrupts the database.
	Buffered
	// Sync group-commits every append: Append returns only after the
	// record (batched with its concurrent peers) is fsynced. An
	// acknowledged update survives any crash.
	Sync
)

func (d Durability) String() string {
	switch d {
	case CheckpointOnly:
		return "checkpoint-only"
	case Buffered:
		return "buffered"
	case Sync:
		return "sync"
	default:
		return fmt.Sprintf("Durability(%d)", int(d))
	}
}

// ParseDurability parses a -durability flag value.
func ParseDurability(s string) (Durability, error) {
	switch s {
	case "checkpoint", "checkpoint-only", "checkpointonly":
		return CheckpointOnly, nil
	case "buffered":
		return Buffered, nil
	case "sync":
		return Sync, nil
	default:
		return 0, fmt.Errorf("wal: unknown durability %q (want checkpoint-only, buffered, or sync)", s)
	}
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// DefaultSegmentBytes is the default segment rotation threshold.
const DefaultSegmentBytes = 4 << 20

// Options configures Open.
type Options struct {
	// Durability must be Buffered or Sync; CheckpointOnly callers should
	// not open a log at all (use Recover/RemoveAll).
	Durability Durability
	// SegmentBytes rotates the active segment once it grows past this
	// size (DefaultSegmentBytes if zero).
	SegmentBytes int64

	// Optional observability hooks; nil histograms record nothing and add
	// no timing overhead. AppendHist sees each record's append latency in
	// nanoseconds — enqueue to written (Buffered) or fsynced (Sync),
	// including time spent waiting behind the group-commit leader.
	// FlushHist sees each physical flush's I/O duration (one WriteAt plus,
	// in Sync mode, one fsync). BatchHist sees the number of records each
	// flush covered — the group-commit batch-size distribution.
	AppendHist *obs.Histogram
	FlushHist  *obs.Histogram
	BatchHist  *obs.Histogram
}

// Stats counts log activity. All counters are cumulative.
type Stats struct {
	Appends   uint64 // records appended
	Batches   uint64 // physical flushes (group commits)
	Segments  uint64 // segments created, including the initial one
	Truncates uint64 // checkpoint retirements (successful Retire calls)
	Bytes     int64  // record bytes appended
}

// Log is an append-only segmented log. All methods are safe for
// concurrent use.
type Log struct {
	vfs      storage.VFS
	syncEach bool
	segBytes int64

	mu   sync.Mutex
	cond *sync.Cond
	// seq numbers appended records; done is the highest seq whose flush
	// completed. Append waits until done covers its own seq.
	seq, done uint64
	pending   []byte
	flushing  bool
	closed    bool
	err       error // sticky flush error; cleared by Cut

	seg      storage.File
	segIndex uint64
	segSize  int64
	names    []string // live segment names, oldest first, active last

	// pendingRecs counts the records in pending, so flushLocked can report
	// the batch size it covered. Guarded by mu like pending itself.
	pendingRecs int

	appendHist *obs.Histogram
	flushHist  *obs.Histogram
	batchHist  *obs.Histogram

	stats Stats
}

// Open recovers the existing log in vfs (see Recover) and opens a fresh
// active segment for appending. Appends never extend a recovered segment:
// its tail may be torn, and writing past a torn record would hide it from
// the next recovery. Recovered segments are retired by the first
// Cut + Retire.
func Open(vfs storage.VFS, opts Options) (*Log, Recovered, error) {
	if opts.Durability == CheckpointOnly {
		return nil, Recovered{}, errors.New("wal: Open requires Buffered or Sync durability")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	// The recovery scan (and tear sealing) is startup I/O; appends from
	// here on are WAL I/O. Both taggings are no-ops on unattributed VFSs.
	rvfs := storage.TagVFS(vfs, storage.SrcRecovery)
	rec, tr, segs, err := recoverLog(rvfs)
	if err != nil {
		return nil, rec, err
	}
	if tr.found {
		// Seal the torn tail before this segment stops being the final
		// one: once newer segments exist, a raw tear would read as
		// corruption and fail every future recovery.
		if err := sealTear(rvfs, tr); err != nil {
			return nil, rec, err
		}
	}
	l := &Log{
		vfs:        storage.TagVFS(vfs, storage.SrcWAL),
		syncEach:   opts.Durability == Sync,
		segBytes:   opts.SegmentBytes,
		appendHist: opts.AppendHist,
		flushHist:  opts.FlushHist,
		batchHist:  opts.BatchHist,
	}
	l.cond = sync.NewCond(&l.mu)
	next := uint64(1)
	for _, idx := range segs {
		l.names = append(l.names, segmentName(idx))
		if idx >= next {
			next = idx + 1
		}
	}
	if err := l.startSegmentLocked(next); err != nil {
		return nil, rec, err
	}
	return l, rec, nil
}

// startSegmentLocked creates segment index and makes it active. Callers
// hold l.mu (or have exclusive access during Open).
func (l *Log) startSegmentLocked(index uint64) error {
	name := segmentName(index)
	f, err := l.vfs.Create(name)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	// The index is burned even if a later step fails: a retry (the next
	// Cut) must allocate a fresh name, since Create is exclusive and
	// the best-effort Remove below may itself fail.
	l.segIndex = index
	fail := func(err error) error {
		f.Close()
		if rerr := l.vfs.Remove(name); rerr != nil && !errors.Is(rerr, storage.ErrNotExist) {
			// Leave the partial file for Open's recovery scan (it reads
			// as a torn creation and is sealed or retired there).
			_ = rerr
		}
		return err
	}
	if _, err := f.WriteAt(encodeSegHeader(index), 0); err != nil {
		return fail(fmt.Errorf("wal: writing segment header: %w", err))
	}
	// The segment's directory entry must be durable before appends into
	// it are acknowledged; file-content fsyncs alone do not persist the
	// entry on a real file system.
	if ds, ok := l.vfs.(storage.DirSyncer); ok {
		if err := ds.SyncDir(); err != nil {
			return fail(fmt.Errorf("wal: syncing directory for new segment: %w", err))
		}
	}
	if l.seg != nil {
		l.seg.Close()
	}
	l.seg = f
	l.segSize = segHeaderSize
	l.names = append(l.names, name)
	l.stats.Segments++
	return nil
}

// Append encodes r and appends it to the log, group-committed with any
// concurrent appenders. In Sync mode it returns once the record is
// durable; in Buffered mode once the record is written to the segment
// file. A non-nil error means the record's durability is unknown; the log
// refuses further appends until Cut resets it.
func (l *Log) Append(r Record) error {
	if l.appendHist == nil {
		return l.append(r)
	}
	start := time.Now()
	err := l.append(r)
	l.appendHist.ObserveDuration(time.Since(start))
	return err
}

func (l *Log) append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	prev := len(l.pending)
	l.pending = appendFrame(l.pending, r)
	l.pendingRecs++
	l.seq++
	seq := l.seq
	l.stats.Appends++
	l.stats.Bytes += int64(len(l.pending) - prev)
	// The closed recheck matters: a Close that raced in while we waited
	// has synced and released the segment, and becoming leader now would
	// write behind the final sync. The straggling record is reported
	// ErrClosed instead.
	for l.done < seq && l.err == nil && !l.closed {
		if l.flushing {
			l.cond.Wait()
		} else {
			l.flushLocked()
		}
	}
	// Success is judged by this record's own batch, not the log's latest
	// state: a later batch may have failed (setting l.err) after ours was
	// already durable, and reporting that failure here would tell the
	// caller a durably-flushed record might be lost.
	if l.done >= seq {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	return ErrClosed
}

// flushLocked writes everything pending in one WriteAt (+ Sync in Sync
// mode), releasing l.mu for the duration of the I/O so that concurrent
// appenders can buffer the next batch behind it. Called with l.mu held
// and l.flushing false; returns with l.mu held and l.flushing false.
func (l *Log) flushLocked() {
	if l.segSize >= l.segBytes {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			l.cond.Broadcast()
			return
		}
	}
	buf := l.pending
	l.pending = nil
	recs := l.pendingRecs
	l.pendingRecs = 0
	target := l.seq
	seg := l.seg
	off := l.segSize
	l.segSize += int64(len(buf))
	l.flushing = true
	l.mu.Unlock()

	var start time.Time
	if l.flushHist != nil {
		start = time.Now()
	}
	_, err := seg.WriteAt(buf, off)
	if err == nil && l.syncEach {
		err = seg.Sync()
	}
	if l.flushHist != nil {
		l.flushHist.ObserveDuration(time.Since(start))
	}

	l.mu.Lock()
	l.flushing = false
	if err != nil {
		l.err = fmt.Errorf("wal: flush: %w", err)
	} else {
		l.done = target
		l.stats.Batches++
		l.batchHist.Observe(uint64(recs))
	}
	l.cond.Broadcast()
}

// rotateLocked closes the active segment and starts the next one. In
// Buffered mode the outgoing segment is synced first, so rotation bounds
// how much a crash can lose to roughly one segment.
func (l *Log) rotateLocked() error {
	if !l.syncEach {
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("wal: syncing rotated segment: %w", err)
		}
	}
	return l.startSegmentLocked(l.segIndex + 1)
}

// Cut rotates to a fresh segment headed by a cut mark and returns a token
// for Retire: the engine calls it at the instant a checkpoint freezes the
// write stores, so that every record appended from then on — updates for
// the NEXT consistency point, racing the flush — lands past the cut and
// survives the retirement of the segments the checkpoint covers. Cut also
// drops any pending (never-acknowledged) buffer and clears the sticky
// flush error: records whose logging failed were still applied to the
// write stores, so they are frozen into the very flush this cut starts —
// their durability from here on is the checkpoint's business, which the
// engine tracks with its own sticky error across the flush.
//
// The caller must guarantee no Append is in flight — in the engine, Cut
// runs under the exclusive structural lock that excludes all updaters.
func (l *Log) Cut(cp uint64) (cut int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		return 0, ErrClosed
	}
	l.err = nil
	l.pending = nil
	l.pendingRecs = 0
	l.done = l.seq
	if err := l.startSegmentLocked(l.segIndex + 1); err != nil {
		l.err = err
		return 0, err
	}
	frame := appendFrame(nil, Record{Op: OpCut, CP: cp})
	if _, err := l.seg.WriteAt(frame, l.segSize); err != nil {
		// A partial mark would put garbage under future appends; refuse
		// further appends until the next Cut rotates past it.
		l.err = fmt.Errorf("wal: writing cut mark: %w", err)
		return 0, l.err
	}
	l.segSize += int64(len(frame))
	if l.syncEach {
		// The mark is what lets recovery tolerate a torn, resurrected
		// predecessor segment; in Sync mode it must be durable before any
		// post-cut append is acknowledged.
		if err := l.seg.Sync(); err != nil {
			l.err = fmt.Errorf("wal: syncing cut mark: %w", err)
			return 0, l.err
		}
	}
	return len(l.names) - 1, nil
}

// Retire deletes the segments a Cut superseded, once the checkpoint that
// issued the Cut has committed: everything those segments guarded is now
// durable in the read store, while records appended during the flush live
// past the cut and are untouched. Safe to call concurrently with appends.
// On failure the not-yet-removed segments stay tracked, so a later Cut +
// Retire (or recovery's CP filter) still retires them.
func (l *Log) Retire(cut int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if cut < 0 || cut >= len(l.names) {
		return fmt.Errorf("wal: retire cut %d out of range (%d segments)", cut, len(l.names))
	}
	old := l.names[:cut]
	for i, name := range old {
		if err := l.vfs.Remove(name); err != nil && !errors.Is(err, storage.ErrNotExist) {
			l.names = append(append([]string(nil), old[i:]...), l.names[cut:]...)
			return err
		}
	}
	l.names = append([]string(nil), l.names[cut:]...)
	l.stats.Truncates++
	return nil
}

// Close drains pending appends, syncs the active segment (so a clean
// shutdown in Buffered mode loses nothing), and releases it. It returns
// the log's sticky error, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		return l.err
	}
	if len(l.pending) > 0 && l.err == nil {
		l.flushLocked()
	}
	if l.err == nil && !l.syncEach {
		if err := l.seg.Sync(); err != nil {
			l.err = fmt.Errorf("wal: sync on close: %w", err)
		}
	}
	l.closed = true
	l.seg.Close()
	l.cond.Broadcast()
	return l.err
}

// Err returns the log's sticky flush error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// SegmentCount returns the number of live segment files (recovered +
// active).
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.names)
}

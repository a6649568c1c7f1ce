package wal

import (
	"errors"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// TestCutRetireKeepsFlushConcurrentAppends is the checkpoint truncation
// contract: records appended after a Cut (updates racing a checkpoint
// flush) survive the Retire that deletes the segments the checkpoint
// covered.
func TestCutRetireKeepsFlushConcurrentAppends(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Sync)
	for i := 0; i < 3; i++ {
		if err := l.Append(addRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := l.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	// "During the flush": appends for the next consistency point.
	during := Record{Op: OpAddRef, Block: 77, Inode: 9, CP: 2, Length: 1}
	if err := l.Append(during); err != nil {
		t.Fatal(err)
	}
	// "Install committed": retire everything the cut superseded.
	if err := l.Retire(cut); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(addRec(50)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2 (the post-cut appends): %+v", len(rec.Records), rec.Records)
	}
	if rec.Records[0] != during || rec.Records[1] != addRec(50) {
		t.Fatalf("wrong records survived: %+v", rec.Records)
	}
}

// TestCrashBetweenCutAndRetire verifies that a crash while the checkpoint
// flush is still running loses nothing: the cut mark does not discard the
// records before it (they are not yet durable in the read store), unlike
// an OpCheckpoint mark.
func TestCrashBetweenCutAndRetire(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Sync)
	pre := []Record{addRec(1), addRec(2)}
	for _, r := range pre {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Cut(1); err != nil {
		t.Fatal(err)
	}
	during := Record{Op: OpRemoveRef, Block: 5, Inode: 1, CP: 2, Length: 1}
	if err := l.Append(during); err != nil {
		t.Fatal(err)
	}
	vfs.Crash() // flush never commits, Retire never runs

	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Record(nil), pre...), during)
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d: %+v", len(rec.Records), len(want), rec.Records)
	}
	for i := range want {
		if rec.Records[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, rec.Records[i], want[i])
		}
	}
	if rec.MarkCP != 0 {
		t.Fatalf("cut mark set MarkCP=%d; it must not promise durability", rec.MarkCP)
	}
}

// TestCutClearsFlushErrorAndPending: a flush failure blocks appends —
// even once the fault is gone — until the next checkpoint's Cut rotates to
// a fresh segment and resets the sticky state.
func TestCutClearsFlushErrorAndPending(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Sync)
	if err := l.Append(addRec(1)); err != nil {
		t.Fatal(err)
	}
	vfs.SetFailurePlan(storage.FailurePlan{FailAfterPageWrites: vfs.Stats().PageWrites})
	if err := l.Append(addRec(2)); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("append during failure plan: %v", err)
	}
	vfs.SetFailurePlan(storage.FailurePlan{})
	if err := l.Append(addRec(3)); err == nil {
		t.Fatal("sticky error did not gate appends")
	}
	if l.Err() == nil {
		t.Fatal("no sticky error")
	}
	cut, err := l.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("sticky error survived Cut: %v", err)
	}
	if err := l.Append(addRec(4)); err != nil {
		t.Fatalf("append after Cut reset: %v", err)
	}
	if err := l.Retire(cut); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || rec.Records[0] != addRec(4) {
		t.Fatalf("recovered %+v, want just the post-cut record", rec.Records)
	}
}

// TestRetireFailureKeepsSegmentsTracked arms a remove failure... MemFS
// Remove only fails for missing files, so instead verify the cut token
// contract directly: retiring with a stale token after a second Cut still
// removes exactly the right segments.
func TestSecondCutCoversUnretiredSegments(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Buffered)
	if err := l.Append(addRec(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Cut(1); err != nil {
		t.Fatal(err) // checkpoint 1 fails: its Retire never happens
	}
	if err := l.Append(addRec(2)); err != nil {
		t.Fatal(err)
	}
	cut2, err := l.Cut(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(addRec(3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Retire(cut2); err != nil {
		t.Fatal(err)
	}
	if got := l.SegmentCount(); got != 1 {
		t.Fatalf("SegmentCount = %d after covering retire, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || rec.Records[0] != addRec(3) {
		t.Fatalf("recovered %+v, want just the post-second-cut record", rec.Records)
	}
}

// TestResurrectedTornSegmentToleratedBeforeCutMark: a segment torn by a
// flush failure and retired may be resurrected by a crash that beat its
// removal; recovery must tolerate the tear because the next segment opens
// with a cut mark, and must keep the torn segment's intact prefix.
func TestResurrectedTornSegmentToleratedBeforeCutMark(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Sync)
	if err := l.Append(addRec(1)); err != nil {
		t.Fatal(err)
	}
	// Tear the active segment with a torn, durable write.
	vfs.SetFailurePlan(storage.FailurePlan{
		FailAfterPageWrites: vfs.Stats().PageWrites,
		TornWrite:           true,
		TornWriteDurable:    true,
	})
	if err := l.Append(addRec(2)); err == nil {
		t.Fatal("torn append reported success")
	}
	vfs.SetFailurePlan(storage.FailurePlan{})
	if _, err := l.Cut(5); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(addRec(3)); err != nil {
		t.Fatal(err)
	}
	vfs.Crash() // Retire never ran: the torn segment survives mid-log

	rec, err := Recover(vfs)
	if err != nil {
		t.Fatalf("recovery rejected a torn segment before a cut mark: %v", err)
	}
	if len(rec.Records) != 2 || rec.Records[0] != addRec(1) || rec.Records[1] != addRec(3) {
		t.Fatalf("recovered %+v, want the pre-tear and post-cut records", rec.Records)
	}
}

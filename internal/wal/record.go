package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Op is a log record type.
type Op uint8

const (
	// OpAddRef logs that a reference became live at CP.
	OpAddRef Op = 1
	// OpRemoveRef logs that a reference ceased to be live at CP.
	OpRemoveRef Op = 2
	// OpRelocate logs a block relocation: every back reference of Block
	// was transplanted onto NewBlock. CP tags the consistency point the
	// relocation will be flushed under.
	OpRelocate Op = 3
	// OpCheckpoint marks a committed consistency point: every record
	// logged before the mark is durable in the read store. Checkpoints
	// write OpCut instead; recovery honours OpCheckpoint because logs
	// written by older versions carry it at the head of a segment.
	OpCheckpoint Op = 4
	// OpSegmentEnd seals a segment: recovery stops reading the segment at
	// the mark, in any position. Open stamps one over a torn tail before
	// starting a fresh segment, so the tear stays terminal even after the
	// segment stops being the final one (where torn bytes would otherwise
	// read as corruption).
	OpSegmentEnd Op = 5
	// OpCut heads the segment a Cut opens when a checkpoint freezes the
	// write stores. Unlike OpCheckpoint it promises nothing about
	// durability — the checkpoint has not committed yet — so recovery
	// keeps every record logged before it and replays records strictly by
	// their CP tags. Its only structural role is the same one a leading
	// OpCheckpoint plays: marking its segment as one that legitimately
	// follows a retired (possibly torn) predecessor.
	OpCut Op = 6
)

func (op Op) String() string {
	switch op {
	case OpAddRef:
		return "addref"
	case OpRemoveRef:
		return "removeref"
	case OpRelocate:
		return "relocate"
	case OpCheckpoint:
		return "checkpoint"
	case OpSegmentEnd:
		return "segment-end"
	case OpCut:
		return "cut"
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// Record is one logical log entry. Which fields are meaningful depends on
// Op: AddRef/RemoveRef use Block/Inode/Offset/Line/Length and CP;
// Relocate uses Block (the old block), NewBlock, and CP; Checkpoint uses
// CP only. The wal package deliberately does not import internal/core
// (core imports wal), so the reference identity is spelled out as plain
// fields rather than a core.Ref.
type Record struct {
	Op Op
	// CP is the consistency-point tag. Replay skips records whose CP is
	// not newer than the last committed checkpoint.
	CP       uint64
	Block    uint64
	Inode    uint64
	Offset   uint64
	Line     uint64
	Length   uint64
	NewBlock uint64
}

// Frame layout: a 4-byte big-endian payload length, a 4-byte CRC-32C of
// the payload, then the payload itself (op byte followed by the op's
// big-endian uint64 fields). The length prefix delimits records; the
// checksum detects torn and corrupt tails.
const (
	frameHeaderSize = 8
	// maxPayload bounds the length field so that a garbage tail cannot
	// make the reader attempt an absurd allocation.
	maxPayload = 1 << 10

	addRefPayload     = 1 + 6*8 // op + ref identity + cp
	relocatePayload   = 1 + 3*8 // op + old + new + cp
	checkpointPayload = 1 + 8   // op + cp
	segmentEndPayload = 1       // op only
	cutPayload        = 1 + 8   // op + cp being frozen
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTorn reports an incomplete or checksum-failing record — the expected
// state of a log tail after a crash mid-append. Recovery treats it as
// end-of-log in the final segment and as corruption anywhere else.
var errTorn = errors.New("wal: torn or corrupt record")

// appendFrame appends the encoded frame for r to dst and returns the
// extended slice.
func appendFrame(dst []byte, r Record) []byte {
	var plen int
	switch r.Op {
	case OpAddRef, OpRemoveRef:
		plen = addRefPayload
	case OpRelocate:
		plen = relocatePayload
	case OpCheckpoint:
		plen = checkpointPayload
	case OpSegmentEnd:
		plen = segmentEndPayload
	case OpCut:
		plen = cutPayload
	default:
		panic(fmt.Sprintf("wal: encoding unknown op %d", r.Op))
	}
	be := binary.BigEndian
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize+plen)...)
	payload := dst[start+frameHeaderSize:]
	payload[0] = byte(r.Op)
	switch r.Op {
	case OpAddRef, OpRemoveRef:
		be.PutUint64(payload[1:], r.Block)
		be.PutUint64(payload[9:], r.Inode)
		be.PutUint64(payload[17:], r.Offset)
		be.PutUint64(payload[25:], r.Line)
		be.PutUint64(payload[33:], r.Length)
		be.PutUint64(payload[41:], r.CP)
	case OpRelocate:
		be.PutUint64(payload[1:], r.Block)
		be.PutUint64(payload[9:], r.NewBlock)
		be.PutUint64(payload[17:], r.CP)
	case OpCheckpoint, OpCut:
		be.PutUint64(payload[1:], r.CP)
	case OpSegmentEnd:
		// op byte only
	}
	be.PutUint32(dst[start:], uint32(plen))
	be.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// decodeFrame decodes the first frame in b, returning the record and the
// number of bytes consumed. It returns errTorn when b holds an incomplete
// frame, a checksum mismatch, or an implausible header — all
// indistinguishable states of a tail cut mid-write.
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) < frameHeaderSize {
		return Record{}, 0, errTorn
	}
	be := binary.BigEndian
	plen := int(be.Uint32(b))
	if plen == 0 || plen > maxPayload {
		return Record{}, 0, errTorn
	}
	if len(b) < frameHeaderSize+plen {
		return Record{}, 0, errTorn
	}
	payload := b[frameHeaderSize : frameHeaderSize+plen]
	if crc32.Checksum(payload, crcTable) != be.Uint32(b[4:]) {
		return Record{}, 0, errTorn
	}
	r := Record{Op: Op(payload[0])}
	switch {
	case (r.Op == OpAddRef || r.Op == OpRemoveRef) && plen == addRefPayload:
		r.Block = be.Uint64(payload[1:])
		r.Inode = be.Uint64(payload[9:])
		r.Offset = be.Uint64(payload[17:])
		r.Line = be.Uint64(payload[25:])
		r.Length = be.Uint64(payload[33:])
		r.CP = be.Uint64(payload[41:])
	case r.Op == OpRelocate && plen == relocatePayload:
		r.Block = be.Uint64(payload[1:])
		r.NewBlock = be.Uint64(payload[9:])
		r.CP = be.Uint64(payload[17:])
	case r.Op == OpCheckpoint && plen == checkpointPayload:
		r.CP = be.Uint64(payload[1:])
	case r.Op == OpSegmentEnd && plen == segmentEndPayload:
		// no fields
	case r.Op == OpCut && plen == cutPayload:
		r.CP = be.Uint64(payload[1:])
	default:
		return Record{}, 0, errTorn
	}
	return r, frameHeaderSize + plen, nil
}

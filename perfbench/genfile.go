package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// The generator runs in a child process that writes the stream and its
// ground truth to a file, so the simulator's memory and garbage never
// burden the process that drives the database.

// generate runs this binary with -gen-to and loads what it wrote.
func generate(name string, seed int64, path string) (*stream, error) {
	cmd := exec.Command(os.Args[0], "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-gen-to", path)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("generator: %w", err)
	}
	defer os.Remove(path)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readStream(bufio.NewReaderSize(f, 1<<20))
}

// writeStreamFile is the child's side of generate.
func writeStreamFile(s *stream, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := writeStream(w, s); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type encoder struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *encoder) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	if len(e.buf) >= 1<<16 {
		e.flush()
	}
}

func (e *encoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

type decoder struct {
	r   io.Reader
	b   [8]byte
	err error
}

func (d *decoder) u64() uint64 {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, d.b[:])
	}
	return binary.LittleEndian.Uint64(d.b[:])
}

// length reads a slice length and rejects one no file of ours holds.
func (d *decoder) length() int {
	n := d.u64()
	if n > 1<<32 && d.err == nil {
		d.err = fmt.Errorf("stream file: bad length %d", n)
	}
	return int(n)
}

func writeStream(w io.Writer, s *stream) error {
	e := &encoder{w: w}
	t := s.truth
	e.u64(uint64(s.preload))
	e.u64(uint64(len(s.events)))
	for _, ev := range s.events {
		e.u64(ev.block)
		e.u64(uint64(ev.ino) | uint64(ev.off)<<32)
		e.u64(uint64(ev.line) | uint64(ev.cp)<<32)
		e.u64(uint64(ev.op))
	}
	e.u64(t.maxBlock)
	e.u64(t.relocated)
	e.u64(uint64(t.refs))
	e.u64(uint64(len(t.start)))
	for _, v := range t.start {
		e.u64(uint64(v))
	}
	e.u64(uint64(len(t.keys)))
	for _, k := range t.keys {
		e.u64(k.ino)
		e.u64(k.off)
		e.u64(k.line)
		e.u64(k.version)
	}
	e.u64(uint64(len(t.digest)))
	for _, v := range t.digest {
		e.u64(v)
	}
	e.u64(uint64(len(t.allocated)))
	for _, v := range t.allocated {
		e.u64(v)
	}
	e.flush()
	return e.err
}

func readStream(r io.Reader) (*stream, error) {
	d := &decoder{r: r}
	s := &stream{truth: &truth{}}
	t := s.truth
	s.preload = int(d.u64())
	s.events = make([]event, d.length())
	for i := range s.events {
		if d.err != nil {
			break
		}
		ev := &s.events[i]
		ev.block = d.u64()
		x := d.u64()
		ev.ino, ev.off = uint32(x), uint32(x>>32)
		x = d.u64()
		ev.line, ev.cp = uint32(x), uint32(x>>32)
		ev.op = opcode(d.u64())
	}
	t.maxBlock, t.relocated, t.refs = d.u64(), d.u64(), int(d.u64())
	t.start = make([]uint32, d.length())
	for i := range t.start {
		t.start[i] = uint32(d.u64())
	}
	t.keys = make([]ownerKey, d.length())
	for i := range t.keys {
		t.keys[i] = ownerKey{d.u64(), d.u64(), d.u64(), d.u64()}
	}
	t.digest = make([]uint64, d.length())
	for i := range t.digest {
		t.digest[i] = d.u64()
	}
	t.allocated = make([]uint64, d.length())
	for i := range t.allocated {
		t.allocated[i] = d.u64()
	}
	if d.err != nil {
		return nil, fmt.Errorf("reading stream file: %w", d.err)
	}
	return s, nil
}

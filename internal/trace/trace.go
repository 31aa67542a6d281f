// Package trace defines the memory-trace format used throughout the
// reproduction, mirroring the paper's bus-monitor records (Section 5): each
// entry carries the physical address, the access type (read or write), the
// requesting device ID (CPU, GPU, DSP, ...) and the arrival time in memory
// cycles.
//
// Traces can be streamed through Reader/Writer in a compact binary encoding
// or a human-readable text encoding, or held in memory as a []Record.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/addr"
)

// Device identifies the SoC agent that issued a request. The trace-producing
// phone in the paper has 8 CPUs, a GPU, an NPU, an ISP and a DSP (Table 1).
type Device uint8

// Device IDs. CPU cores occupy 0..7; accelerators follow.
const (
	CPU0 Device = iota
	CPU1
	CPU2
	CPU3
	CPU4
	CPU5
	CPU6
	CPU7
	GPU
	NPU
	ISP
	DSP
	numDevices
)

var deviceNames = [numDevices]string{
	"cpu0", "cpu1", "cpu2", "cpu3", "cpu4", "cpu5", "cpu6", "cpu7",
	"gpu", "npu", "isp", "dsp",
}

// String returns the lower-case device mnemonic.
func (d Device) String() string {
	if int(d) < len(deviceNames) {
		return deviceNames[d]
	}
	return fmt.Sprintf("dev%d", uint8(d))
}

// ParseDevice is the inverse of String.
func ParseDevice(s string) (Device, error) {
	for i, n := range deviceNames {
		if n == s {
			return Device(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown device %q", s)
}

// IsCPU reports whether the device is one of the CPU cores.
func (d Device) IsCPU() bool { return d <= CPU7 }

// Record is one memory access observed on the memory bus.
type Record struct {
	Addr   addr.Addr // physical byte address (block aligned by convention)
	Cycle  uint64    // arrival time in memory-controller cycles
	Device Device    // requesting agent
	Write  bool      // true for a write, false for a read
}

// Block returns the accessed block number.
func (r Record) Block() addr.BlockNum { return r.Addr.Block() }

// Page returns the accessed page number.
func (r Record) Page() addr.PageNum { return r.Addr.Page() }

// String renders the record in the text-trace line format.
func (r Record) String() string {
	op := "R"
	if r.Write {
		op = "W"
	}
	return fmt.Sprintf("%d %s %#x %s", r.Cycle, op, uint64(r.Addr), r.Device)
}

// Trace is an in-memory trace.
type Trace []Record

// Sort orders the trace by arrival cycle (stable, preserving issue order of
// simultaneous requests).
func (t Trace) Sort() {
	sort.SliceStable(t, func(i, j int) bool { return t[i].Cycle < t[j].Cycle })
}

// Sorted reports whether arrival cycles are non-decreasing.
func (t Trace) Sorted() bool {
	for i := 1; i < len(t); i++ {
		if t[i].Cycle < t[i-1].Cycle {
			return false
		}
	}
	return true
}

// Merge interleaves two cycle-sorted traces into one cycle-sorted trace.
func Merge(a, b Trace) Trace {
	out := make(Trace, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Cycle <= b[j].Cycle {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// binary encoding: little-endian
//   magic "PLTR" | version u8 | reserved [3]u8
//   per record: addr u64 | cycle u64 | device u8 | flags u8 (bit0 = write)

var magic = [4]byte{'P', 'L', 'T', 'R'}

const (
	binVersion  = 1
	headerBytes = 8  // magic + version + reserved
	recordBytes = 18 // addr + cycle + device + flags
)

// Writer streams records in the binary encoding.
type Writer struct {
	w     *bufio.Writer
	wrote bool
	buf   [recordBytes]byte
}

// NewWriter creates a binary trace writer on w. The header is emitted lazily
// before the first record (or by Flush on an empty trace).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (w *Writer) header() error {
	if w.wrote {
		return nil
	}
	w.wrote = true
	if _, err := w.w.Write(magic[:]); err != nil {
		return err
	}
	_, err := w.w.Write([]byte{binVersion, 0, 0, 0})
	return err
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if err := w.header(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(w.buf[0:8], uint64(r.Addr))
	binary.LittleEndian.PutUint64(w.buf[8:16], r.Cycle)
	w.buf[16] = uint8(r.Device)
	var flags uint8
	if r.Write {
		flags = 1
	}
	w.buf[17] = flags
	_, err := w.w.Write(w.buf[:])
	return err
}

// Flush writes any buffered data (and the header, if no record was written).
func (w *Writer) Flush() error {
	if err := w.header(); err != nil {
		return err
	}
	return w.w.Flush()
}

// Reader streams records from the binary encoding.
type Reader struct {
	r      *bufio.Reader
	header bool
	buf    [recordBytes]byte
}

// NewReader creates a binary trace reader on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// ErrBadMagic reports that the stream is not a binary Planaria trace.
var ErrBadMagic = errors.New("trace: bad magic (not a Planaria binary trace)")

func (r *Reader) readHeader() error {
	if r.header {
		return nil
	}
	var h [headerBytes]byte
	if _, err := io.ReadFull(r.r, h[:]); err != nil {
		return err
	}
	if err := checkHeader(h); err != nil {
		return err
	}
	r.header = true
	return nil
}

// checkHeader validates a binary trace header's magic and version.
func checkHeader(h [headerBytes]byte) error {
	if [4]byte{h[0], h[1], h[2], h[3]} != magic {
		return ErrBadMagic
	}
	if h[4] != binVersion {
		return fmt.Errorf("trace: unsupported version %d", h[4])
	}
	return nil
}

// errTruncated reports a trace that ends part-way through a record.
var errTruncated = fmt.Errorf("trace: truncated record: %w", io.ErrUnexpectedEOF)

// Read returns the next record, or io.EOF at end of trace.
func (r *Reader) Read() (Record, error) {
	if err := r.readHeader(); err != nil {
		return Record{}, err
	}
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, errTruncated
		}
		return Record{}, err
	}
	var rec [1]Record
	decodeBatch(rec[:], r.buf[:])
	return rec[0], nil
}

// decodeBatch decodes len(dst) records from src into dst. It is the one
// decoder of the binary record format: ReaderStream.NextChunk hands it
// whole chunks, and Reader.Read one record. One up-front bounds assertion
// covers the whole batch, and each record is then two word-at-a-time
// little-endian loads plus two byte loads from a constant-size sub-slice —
// no per-record slice-header arithmetic the bounds checker has to re-prove.
// src must hold at least len(dst)*recordBytes bytes.
func decodeBatch(dst []Record, src []byte) {
	if len(dst) == 0 {
		return
	}
	_ = src[len(dst)*recordBytes-1] // one bounds assertion for the batch
	off := 0
	for k := range dst {
		b := src[off : off+recordBytes : off+recordBytes]
		dst[k] = Record{
			Addr:   addr.Addr(binary.LittleEndian.Uint64(b[0:8])),
			Cycle:  binary.LittleEndian.Uint64(b[8:16]),
			Device: Device(b[16]),
			Write:  b[17]&1 != 0,
		}
		off += recordBytes
	}
}

// ReadAll drains the reader into memory.
func (r *Reader) ReadAll() (Trace, error) {
	var t Trace
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return t, err
		}
		t = append(t, rec)
	}
}

// WriteAll writes a whole trace and flushes.
func WriteAll(w io.Writer, t Trace) error {
	tw := NewWriter(w)
	for _, r := range t {
		if err := tw.Write(r); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// ReadAllFrom reads a whole binary trace from r.
func ReadAllFrom(r io.Reader) (Trace, error) {
	return NewReader(r).ReadAll()
}

// Text encoding: one record per line, "<cycle> <R|W> <hex addr> <device>".
// Lines starting with '#' and blank lines are ignored.

// WriteText writes the trace in the text encoding.
func WriteText(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# cycle op addr device"); err != nil {
		return err
	}
	for _, r := range t {
		if _, err := fmt.Fprintln(bw, r.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text encoding.
func ReadText(r io.Reader) (Trace, error) {
	var t Trace
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		fields := strings.Fields(s)
		if len(fields) != 4 {
			return t, fmt.Errorf("trace: line %d: want 4 fields, got %d", line, len(fields))
		}
		var rec Record
		cyc, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return t, fmt.Errorf("trace: line %d: bad cycle %q", line, fields[0])
		}
		rec.Cycle = cyc
		switch fields[1] {
		case "R", "r":
			rec.Write = false
		case "W", "w":
			rec.Write = true
		default:
			return t, fmt.Errorf("trace: line %d: bad op %q", line, fields[1])
		}
		a, err := strconv.ParseUint(fields[2], 0, 64)
		if err != nil {
			return t, fmt.Errorf("trace: line %d: bad address %q", line, fields[2])
		}
		rec.Addr = addr.Addr(a)
		dev, err := ParseDevice(fields[3])
		if err != nil {
			return t, fmt.Errorf("trace: line %d: %v", line, err)
		}
		rec.Device = dev
		t = append(t, rec)
	}
	return t, sc.Err()
}

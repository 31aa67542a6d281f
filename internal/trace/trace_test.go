package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/addr"
)

func sampleTrace() Trace {
	return Trace{
		{Addr: 0x1000, Cycle: 10, Device: CPU0, Write: false},
		{Addr: 0x1040, Cycle: 12, Device: GPU, Write: true},
		{Addr: 0x2000, Cycle: 20, Device: DSP, Write: false},
		{Addr: 0x2fc0, Cycle: 25, Device: CPU3, Write: true},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleTrace()) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, sampleTrace())
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty trace, got %d records", len(got))
	}
}

func TestBinaryBadMagic(t *testing.T) {
	_, err := ReadAllFrom(strings.NewReader("not a trace at all"))
	if err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestBinaryTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-5]
	r := NewReader(bytes.NewReader(cut))
	var err error
	for err == nil {
		_, err = r.Read()
	}
	if err == io.EOF {
		t.Fatal("truncated trace read cleanly")
	}
}

// TestWriteTextFormat pins the text encoding tracegen -text writes: one
// header line, then each record's String form on its own line.
func TestWriteTextFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	want := "# cycle op addr device\n" +
		"10 R 0x1000 cpu0\n" +
		"12 W 0x1040 gpu\n" +
		"20 R 0x2000 dsp\n" +
		"25 W 0x2fc0 cpu3\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteText wrote\n%s\nwant\n%s", got, want)
	}
}

func TestDeviceRoundTrip(t *testing.T) {
	for d := CPU0; d < numDevices; d++ {
		got, err := ParseDevice(d.String())
		if err != nil || got != d {
			t.Errorf("device %d: round trip got %v, %v", d, got, err)
		}
	}
	if _, err := ParseDevice("bogus"); err == nil {
		t.Error("expected error for unknown device")
	}
}

func TestSortAndSorted(t *testing.T) {
	tr := Trace{
		{Cycle: 5}, {Cycle: 3}, {Cycle: 9}, {Cycle: 3, Device: GPU},
	}
	if tr.Sorted() {
		t.Fatal("unsorted trace reported sorted")
	}
	tr.Sort()
	if !tr.Sorted() {
		t.Fatal("Sort did not sort")
	}
	// Stability: the two cycle-3 records keep their relative order.
	if tr[0].Device != CPU0 || tr[1].Device != GPU {
		t.Fatalf("sort not stable: %v", tr)
	}
}

func TestConcat(t *testing.T) {
	a := Trace{{Cycle: 10}, {Cycle: 100}}
	b := Trace{{Cycle: 5000}, {Cycle: 5100}}
	got := Concat(a, b, 50)
	if len(got) != 4 || !got.Sorted() {
		t.Fatalf("Concat = %v", got)
	}
	if got[2].Cycle != 150 || got[3].Cycle != 250 {
		t.Fatalf("shifted cycles wrong: %v", got)
	}
	// Degenerate inputs.
	if got := Concat(nil, b, 7); got[0].Cycle != 7 {
		t.Fatalf("empty-a Concat = %v", got)
	}
	if got := Concat(a, nil, 7); len(got) != 2 {
		t.Fatalf("empty-b Concat = %v", got)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := make(Trace, 500)
	for i := range tr {
		tr[i] = Record{
			Addr:   addr.Addr(rng.Uint64() &^ 63),
			Cycle:  uint64(i * 3),
			Device: Device(rng.Intn(int(numDevices))),
			Write:  rng.Intn(4) == 0,
		}
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("property round trip mismatch")
	}
}

func TestAnalyze(t *testing.T) {
	tr := Trace{
		{Addr: 0x1000, Cycle: 0, Device: CPU0},              // page 1 block 0 (ch 0)
		{Addr: 0x1040, Cycle: 10, Device: CPU0},             // page 1 block 1 (ch 0)
		{Addr: 0x1400, Cycle: 20, Device: GPU, Write: true}, // page 1 block 16 (ch 1)
		{Addr: 0x2000, Cycle: 30, Device: DSP},              // page 2 block 0 (ch 0)
		{Addr: 0x1000, Cycle: 40, Device: CPU0},             // repeat
	}
	s := Analyze(tr)
	if s.Records != 5 || s.Reads != 4 || s.Writes != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.Pages != 2 || s.Blocks != 4 {
		t.Fatalf("footprint wrong: pages %d blocks %d", s.Pages, s.Blocks)
	}
	if s.PerDevice[CPU0] != 3 || s.PerDevice[GPU] != 1 || s.PerDevice[DSP] != 1 {
		t.Fatalf("device mix wrong: %v", s.PerDevice)
	}
	if s.ChannelLoad[0] != 4 || s.ChannelLoad[1] != 1 {
		t.Fatalf("channel load wrong: %v", s.ChannelLoad)
	}
	if s.MeanGap != 10 {
		t.Fatalf("mean gap %v, want 10", s.MeanGap)
	}
	if s.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	s := Analyze(nil)
	if s.Records != 0 || s.Pages != 0 || s.MeanGap != 0 {
		t.Fatalf("empty stats wrong: %+v", s)
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Addr: 0x1040, Cycle: 7, Device: GPU, Write: true}
	if got := r.String(); got != "7 W 0x1040 gpu" {
		t.Fatalf("String = %q", got)
	}
}

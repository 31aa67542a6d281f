package workloads

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestProfileJSONRoundTrip(t *testing.T) {
	for _, p := range Catalog() {
		var buf bytes.Buffer
		if err := WriteProfile(&buf, p); err != nil {
			t.Fatalf("%s: write: %v", p.Abbr, err)
		}
		got, err := ReadProfile(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", p.Abbr, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", p.Abbr, got, p)
		}
	}
}

func TestProfileJSONUsesDeviceNames(t *testing.T) {
	var buf bytes.Buffer
	p, _ := ByAbbr("CFM")
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"device": "gpu"`) {
		t.Fatalf("device mnemonics missing from JSON:\n%s", buf.String())
	}
}

func TestReadProfileRejectsInvalid(t *testing.T) {
	cases := []string{
		`{`, // malformed
		`{"FootprintMin": 0, "FootprintMax": 10, "Parallelism": 1, "MeanGap": 1}`, // fails validation
		`{"DeviceWeights": [{"device": "toaster", "weight": 1}]}`,                 // bad device
	}
	for i, c := range cases {
		if _, err := ReadProfile(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReadProfileGeneratesDeterministically(t *testing.T) {
	var buf bytes.Buffer
	p, _ := ByAbbr("HoK")
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Generate(2000)
	b := got.Generate(2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("JSON round-tripped profile generates a different trace")
	}
}

// FuzzReadProfile: ReadProfile must never panic, and any profile it accepts
// must re-encode and re-decode to an equal value.
func FuzzReadProfile(f *testing.F) {
	p, _ := ByAbbr("CFM")
	var good bytes.Buffer
	if err := WriteProfile(&good, p); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte(`{"DeviceWeights": [{"device": "toaster", "weight": 1}]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := ReadProfile(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteProfile(&buf, p); err != nil {
			t.Fatalf("accepted profile does not re-encode: %v", err)
		}
		back, err := ReadProfile(&buf)
		if err != nil {
			t.Fatalf("re-encoded profile rejected: %v", err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the profile:\n got %+v\nwant %+v", back, p)
		}
	})
}

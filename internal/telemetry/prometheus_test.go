package telemetry

import (
	"bytes"
	"encoding/binary"
	"regexp"
	"strings"
	"testing"
)

// The name grammars as regular expressions: the oracle validName must
// agree with.
var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// registryFrom builds a registry from fuzz bytes. The bytes split at 0x00
// into fields, taken four at a time: a value whose first byte also picks
// the kind (counter, gauge or histogram) and the label key, a name, a help
// text and a label value (none when empty). A name keeps only the bytes a
// metric name may hold, behind a prefix per kind, so no counter or gauge
// can take a histogram's _bucket, _count or _sum series name.
func registryFrom(data []byte) *Registry {
	r := NewRegistry()
	fields := bytes.Split(data, []byte{0})
	for i := 0; i+3 < len(fields); i += 4 {
		spec, name, help, value := fields[i], fields[i+1], string(fields[i+2]), string(fields[i+3])
		var kind byte
		if len(spec) > 0 {
			kind = spec[0]
		}
		var raw [8]byte
		copy(raw[:], spec)
		v := binary.LittleEndian.Uint64(raw[:])
		var labels []Label
		if value != "" {
			labels = []Label{{[]string{"channel", "component", "app"}[kind/3%3], value}}
		}
		clean := []byte{"cgh"[kind%3], '_'}
		for _, c := range name {
			if validName(string(c), true) || '0' <= c && c <= '9' {
				clean = append(clean, c)
			}
		}
		switch kind % 3 {
		case 0:
			r.Counter(string(clean), help, labels...).Add(v)
		case 1:
			r.Gauge(string(clean), help, labels...).Set(int64(v))
		case 2:
			h := r.Histogram(string(clean), help, labels...)
			h.Record(v)
			h.Record(v >> 32)
		}
	}
	return r
}

// FuzzValidateExposition: the exposition validator never panics, the
// name check agrees with the name grammars' regular expressions on the
// input and on every token of it, and a registry built from the input
// renders an exposition the validator accepts.
func FuzzValidateExposition(f *testing.F) {
	f.Add([]byte("# HELP m help text\n# TYPE m gauge\nm{a=\"x\\\"y\\\\z\\n\"} 1.5 1700000000\n"))
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"))
	f.Add([]byte("planaria_demand_reads_total{channel=\"0\"} 10\n1bad_name 3\nt{1a=\"b\"} 1\n"))
	f.Add([]byte("\x02\x01\x00lat_cycles\x00Latency.\x00chan\"nel\\\n\x00\x00reads_total\x00Reads\nhelp\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ValidateExposition(bytes.NewReader(data)) //nolint:errcheck // only must not panic

		s := string(data)
		for _, tok := range append(strings.FieldsFunc(s, func(r rune) bool {
			return strings.ContainsRune(" \t\n{}=,\"#", r)
		}), s) {
			if got, want := validName(tok, true), metricNameRe.MatchString(tok); got != want {
				t.Fatalf("metric name %q: validName %v, regexp %v", tok, got, want)
			}
			if got, want := validName(tok, false), labelNameRe.MatchString(tok); got != want {
				t.Fatalf("label name %q: validName %v, regexp %v", tok, got, want)
			}
		}

		var sb strings.Builder
		if err := WritePrometheus(&sb, registryFrom(data)); err != nil {
			t.Fatal(err)
		}
		if err := ValidateExposition(strings.NewReader(sb.String())); err != nil {
			t.Fatalf("own exposition rejected: %v\n%s", err, sb.String())
		}
	})
}

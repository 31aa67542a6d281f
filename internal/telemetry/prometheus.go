package telemetry

// Prometheus text exposition (version 0.0.4): WritePrometheus renders the
// registry for the live metrics.prom view, and ValidateExposition is the
// matching minimal promlint-style checker used by the exposition tests, by
// `experiments -validate-metrics`, and by the CI live-view smoke step.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in the text exposition format, in
// stable name order with children in label order: `# HELP` and `# TYPE`
// lines, then one sample line per child (histograms expand into the usual
// cumulative `_bucket{le=...}`, `_sum` and `_count` series). Safe to call
// mid-run: all reads are atomic snapshots.
func WritePrometheus(w io.Writer, r *Registry) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		children := f.sortedChildren()
		if len(children) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, c := range children {
			switch f.typ {
			case TypeCounter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, braceSig(c.sig), c.counter.Value())
			case TypeGauge:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, braceSig(c.sig), c.gauge.Value())
			case TypeHistogram:
				writeHistogram(bw, f.name, c)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram child as cumulative buckets plus
// _sum and _count, merging the le label into any existing child labels.
func writeHistogram(w io.Writer, name string, c *child) {
	buckets, count, sum := c.hist.snapshot()
	cum := uint64(0)
	for i, b := range buckets {
		cum += b
		le := BucketLE(i)
		if c.sig == "" {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, c.sig, le, cum)
		}
	}
	fmt.Fprintf(w, "%s_sum%s %d\n", name, braceSig(c.sig), sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, braceSig(c.sig), count)
}

// braceSig wraps a non-empty label signature in braces.
func braceSig(sig string) string {
	if sig == "" {
		return ""
	}
	return "{" + sig + "}"
}

// escapeHelp applies the exposition-format HELP escapes.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// validName reports whether s is a metric name, [a-zA-Z_:][a-zA-Z0-9_:]*,
// or, with colon false, a label name, [a-zA-Z_][a-zA-Z0-9_]*.
func validName(s string, colon bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_':
		case c == ':' && colon:
		case '0' <= c && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return s != ""
}

// ValidateExposition parses a text-exposition payload and reports the
// first violation it finds: malformed sample or comment lines, invalid
// metric/label names, a TYPE appearing after its family's samples or
// repeated, unparseable values, histogram bucket series that are not
// cumulative, and histogram families missing their +Inf bucket or
// _count/_sum series. Empty input is valid (an idle registry).
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	typeOf := map[string]string{} // family -> declared type
	seenSample := map[string]bool{}
	hists := map[string]*histState{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := validateComment(line, typeOf, seenSample); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := familyOf(name, typeOf)
		seenSample[fam] = true
		if typeOf[fam] == TypeHistogram {
			h := hists[fam]
			if h == nil {
				h = &histState{lastCum: map[string]float64{}, sawInf: map[string]bool{}, sawCount: map[string]bool{}, sawSum: map[string]bool{}}
				hists[fam] = h
			}
			if err := h.observe(fam, name, labels, value); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("telemetry: read exposition: %w", err)
	}
	for fam, h := range hists {
		for _, ls := range h.labelSets {
			if !h.sawInf[ls] {
				return fmt.Errorf("telemetry: histogram %s{%s} missing +Inf bucket", fam, ls)
			}
			if !h.sawCount[ls] {
				return fmt.Errorf("telemetry: histogram %s{%s} missing _count", fam, ls)
			}
			if !h.sawSum[ls] {
				return fmt.Errorf("telemetry: histogram %s{%s} missing _sum", fam, ls)
			}
		}
	}
	return nil
}

// validateComment checks a `# HELP` / `# TYPE` line (other comments pass).
func validateComment(line string, typeOf map[string]string, seenSample map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validName(fields[2], true) {
			return fmt.Errorf("telemetry: malformed HELP comment %q", line)
		}
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("telemetry: malformed TYPE comment %q", line)
		}
		name, typ := fields[2], fields[3]
		if !validName(name, true) {
			return fmt.Errorf("telemetry: invalid metric name %q", name)
		}
		switch typ {
		case TypeCounter, TypeGauge, TypeHistogram, "summary", "untyped":
		default:
			return fmt.Errorf("telemetry: invalid TYPE %q for %s", typ, name)
		}
		if _, dup := typeOf[name]; dup {
			return fmt.Errorf("telemetry: duplicate TYPE for %s", name)
		}
		if seenSample[name] {
			return fmt.Errorf("telemetry: TYPE for %s after its samples", name)
		}
		typeOf[name] = typ
	}
	return nil
}

// histState tracks one histogram family's per-label-set invariants while
// validating: cumulative bucket order, the +Inf terminal bucket, and the
// presence and consistency of the _count/_sum series.
type histState struct {
	lastCum   map[string]float64 // per label-set (minus le) running cumulative
	sawInf    map[string]bool
	sawCount  map[string]bool
	sawSum    map[string]bool
	labelSets []string
}

// observe folds one histogram-family sample into the per-label-set state.
func (h *histState) observe(fam, name string, labels map[string]string, value float64) error {
	le, hasLE := labels["le"]
	delete(labels, "le")
	ls := canonicalLabels(labels)
	switch {
	case name == fam+"_bucket":
		if !hasLE {
			return fmt.Errorf("telemetry: %s without le label", name)
		}
		if !h.seen(ls) {
			h.labelSets = append(h.labelSets, ls)
		}
		if le == "+Inf" {
			h.sawInf[ls] = true
		} else if _, err := strconv.ParseFloat(le, 64); err != nil {
			return fmt.Errorf("telemetry: unparseable le=%q on %s", le, name)
		}
		if prev, ok := h.lastCum[ls]; ok && value < prev {
			return fmt.Errorf("telemetry: %s{%s} buckets not cumulative (%g after %g)", fam, ls, value, prev)
		}
		h.lastCum[ls] = value
	case name == fam+"_count":
		if !h.seen(ls) {
			h.labelSets = append(h.labelSets, ls)
		}
		h.sawCount[ls] = true
		if inf, ok := h.lastCum[ls]; ok && h.sawInf[ls] && value != inf {
			return fmt.Errorf("telemetry: %s{%s} _count %g != +Inf bucket %g", fam, ls, value, inf)
		}
	case name == fam+"_sum":
		if !h.seen(ls) {
			h.labelSets = append(h.labelSets, ls)
		}
		h.sawSum[ls] = true
	case name == fam:
		return fmt.Errorf("telemetry: bare sample %s for histogram family", name)
	}
	return nil
}

func (h *histState) seen(ls string) bool {
	_, ok := h.lastCum[ls]
	return ok || h.sawCount[ls] || h.sawSum[ls]
}

// canonicalLabels renders a parsed label map in sorted order.
func canonicalLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, 0, len(labels))
	for k, v := range labels {
		ls = append(ls, Label{k, v})
	}
	return labelSignature(ls)
}

// familyOf maps a sample name to its declared family: histogram series
// suffixes collapse onto the declared histogram family name.
func familyOf(name string, typeOf map[string]string) string {
	for _, suf := range []string{"_bucket", "_count", "_sum"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && typeOf[base] == TypeHistogram {
			return base
		}
	}
	return name
}

// parseSample parses one exposition sample line into name, labels and
// value (an optional trailing timestamp is accepted and ignored).
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = map[string]string{}
	rest := line
	brace := strings.IndexByte(rest, '{')
	sp := strings.IndexAny(rest, " \t")
	if brace >= 0 && (sp < 0 || brace < sp) {
		name = rest[:brace]
		rest = rest[brace+1:]
		rest, err = parseLabels(rest, labels)
		if err != nil {
			return "", nil, 0, err
		}
	} else {
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("telemetry: sample %q missing value", line)
		}
		name = rest[:sp]
		rest = rest[sp:]
	}
	if !validName(name, true) {
		return "", nil, 0, fmt.Errorf("telemetry: invalid metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("telemetry: sample %q: want value [timestamp]", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("telemetry: sample %q: bad value: %w", line, err)
	}
	if len(fields) == 2 {
		if _, terr := strconv.ParseInt(fields[1], 10, 64); terr != nil {
			return "", nil, 0, fmt.Errorf("telemetry: sample %q: bad timestamp", line)
		}
	}
	return name, labels, value, nil
}

// parseLabels consumes `k="v",...}` and returns the remainder after '}'.
func parseLabels(s string, out map[string]string) (rest string, err error) {
	for {
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, "}") {
			return s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return "", fmt.Errorf("telemetry: labels missing '=' in %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		if !validName(key, false) {
			return "", fmt.Errorf("telemetry: invalid label name %q", key)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return "", fmt.Errorf("telemetry: label %s value not quoted", key)
		}
		s = s[1:]
		var val strings.Builder
		for {
			if s == "" {
				return "", fmt.Errorf("telemetry: unterminated label value for %s", key)
			}
			ch := s[0]
			s = s[1:]
			if ch == '\\' {
				if s == "" {
					return "", fmt.Errorf("telemetry: dangling escape in label %s", key)
				}
				esc := s[0]
				s = s[1:]
				switch esc {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", fmt.Errorf("telemetry: bad escape \\%c in label %s", esc, key)
				}
				continue
			}
			if ch == '"' {
				break
			}
			val.WriteByte(ch)
		}
		out[key] = val.String()
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if strings.HasPrefix(s, "}") {
			return s[1:], nil
		}
		return "", fmt.Errorf("telemetry: labels missing ',' or '}' after %s", key)
	}
}

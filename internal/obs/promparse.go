package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// A minimal validating parser for the text exposition format — just enough
// to make "the endpoint emits parseable Prometheus" a testable claim (the
// golden test in the server package and the spad end-to-end test both run
// scrapes through it). It checks what a real scraper relies on: every
// sample belongs to a family with HELP and TYPE declared first, values
// parse, no series repeats, and histogram series are le-sorted, cumulative
// and +Inf-terminated with consistent _sum/_count.

// ParsedFamily is one family as seen by ParseProm.
type ParsedFamily struct {
	Name    string
	Type    string
	HasHelp bool
	// Samples maps a canonical series key — name plus sorted label pairs,
	// e.g. `spa_stage_duration_seconds_bucket{le="+Inf",stage="decode"}` or
	// a bare name for unlabelled series — to its value.
	Samples map[string]float64
}

// ParseProm reads one exposition and returns its families keyed by family
// name, or an error describing the first malformation.
func ParseProm(r io.Reader) (map[string]*ParsedFamily, error) {
	fams := make(map[string]*ParsedFamily)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(fams, line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		if err := parseSample(fams, line); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range fams {
		if !f.HasHelp {
			return nil, fmt.Errorf("family %s: missing # HELP", f.Name)
		}
		if f.Type == "" {
			return nil, fmt.Errorf("family %s: missing # TYPE", f.Name)
		}
		if f.Type == "histogram" {
			if err := validateHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

func parseComment(fams map[string]*ParsedFamily, line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // free-form comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 4 || fields[3] == "" {
			return fmt.Errorf("HELP without text: %q", line)
		}
		getFamily(fams, fields[2]).HasHelp = true
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("TYPE without type: %q", line)
		}
		typ := strings.TrimSpace(fields[3])
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q", typ)
		}
		f := getFamily(fams, fields[2])
		if len(f.Samples) > 0 {
			return fmt.Errorf("TYPE for %s after its samples", f.Name)
		}
		if f.Type != "" {
			return fmt.Errorf("duplicate TYPE for %s", f.Name)
		}
		f.Type = typ
	}
	return nil
}

func getFamily(fams map[string]*ParsedFamily, name string) *ParsedFamily {
	f := fams[name]
	if f == nil {
		f = &ParsedFamily{Name: name, Samples: make(map[string]float64)}
		fams[name] = f
	}
	return f
}

func parseSample(fams map[string]*ParsedFamily, line string) error {
	name, rest, err := splitMetricName(line)
	if err != nil {
		return err
	}
	var labels []string
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return fmt.Errorf("unterminated label set: %q", line)
		}
		labels, err = parseLabels(rest[1:end])
		if err != nil {
			return fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return fmt.Errorf("malformed sample: %q", line)
	}
	value, err := parsePromValue(fields[0])
	if err != nil {
		return fmt.Errorf("bad value %q: %w", fields[0], err)
	}

	// Resolve the owning family: histogram sub-series belong to their base.
	famName := name
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if f, ok := fams[base]; ok && f.Type == "histogram" {
				famName = base
			}
			break
		}
	}
	f, ok := fams[famName]
	if !ok || f.Type == "" {
		return fmt.Errorf("sample %s before its # TYPE", name)
	}
	sort.Strings(labels)
	key := name
	if len(labels) > 0 {
		key += "{" + strings.Join(labels, ",") + "}"
	}
	if _, dup := f.Samples[key]; dup {
		return fmt.Errorf("duplicate series %s", key)
	}
	f.Samples[key] = value
	return nil
}

func splitMetricName(line string) (string, string, error) {
	i := 0
	for i < len(line) {
		c := line[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9') {
			i++
			continue
		}
		break
	}
	if i == 0 {
		return "", "", fmt.Errorf("malformed metric name in %q", line)
	}
	return line[:i], line[i:], nil
}

// parseLabels splits `k="v",k2="v2"` into canonical `k="v"` pairs.
func parseLabels(s string) ([]string, error) {
	var out []string
	for s != "" {
		eq := strings.Index(s, "=")
		if eq <= 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label pair")
		}
		name := s[:eq]
		rest := s[eq+2:]
		// Find the closing quote, honoring backslash escapes.
		end := -1
		for j := 0; j < len(rest); j++ {
			if rest[j] == '\\' {
				j++
				continue
			}
			if rest[j] == '"' {
				end = j
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated label value")
		}
		out = append(out, name+`="`+rest[:end]+`"`)
		s = rest[end+1:]
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		} else if s != "" {
			return nil, fmt.Errorf("junk after label value")
		}
	}
	return out, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validateHistogram checks every label set of a histogram family for the
// invariants a scraper assumes: le values parse and strictly ascend,
// cumulative counts never decrease, +Inf is present and agrees with
// _count, and _sum exists.
func validateHistogram(f *ParsedFamily) error {
	type series struct {
		le  float64
		cum float64
	}
	groups := make(map[string][]series) // label-set (minus le) → buckets
	sums := make(map[string]bool)
	counts := make(map[string]float64)
	for key, v := range f.Samples {
		name, labels := splitSeriesKey(key)
		switch {
		case name == f.Name+"_bucket":
			le, rest, err := extractLE(labels)
			if err != nil {
				return fmt.Errorf("family %s: %w", f.Name, err)
			}
			groups[rest] = append(groups[rest], series{le: le, cum: v})
		case name == f.Name+"_sum":
			sums[labels] = true
		case name == f.Name+"_count":
			counts[labels] = v
		default:
			return fmt.Errorf("family %s: stray series %s", f.Name, key)
		}
	}
	if len(groups) == 0 {
		return fmt.Errorf("family %s: histogram with no _bucket series", f.Name)
	}
	for labels, buckets := range groups {
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
		last := buckets[len(buckets)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("family %s{%s}: missing le=\"+Inf\" bucket", f.Name, labels)
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i].le == buckets[i-1].le {
				return fmt.Errorf("family %s{%s}: duplicate le bound", f.Name, labels)
			}
			if buckets[i].cum < buckets[i-1].cum {
				return fmt.Errorf("family %s{%s}: buckets not cumulative at le=%g", f.Name, labels, buckets[i].le)
			}
		}
		cnt, ok := counts[labels]
		if !ok {
			return fmt.Errorf("family %s{%s}: missing _count", f.Name, labels)
		}
		if cnt != last.cum {
			return fmt.Errorf("family %s{%s}: _count %g != +Inf bucket %g", f.Name, labels, cnt, last.cum)
		}
		if !sums[labels] {
			return fmt.Errorf("family %s{%s}: missing _sum", f.Name, labels)
		}
	}
	return nil
}

// splitSeriesKey splits a canonical series key into metric name and the
// sorted label body (no braces).
func splitSeriesKey(key string) (string, string) {
	if i := strings.Index(key, "{"); i >= 0 {
		return key[:i], strings.TrimSuffix(key[i+1:], "}")
	}
	return key, ""
}

// extractLE pulls the le pair out of a sorted label body, returning its
// value and the remaining labels.
func extractLE(labels string) (float64, string, error) {
	var rest []string
	le := ""
	for _, pair := range splitLabelBody(labels) {
		if strings.HasPrefix(pair, `le="`) {
			le = strings.TrimSuffix(strings.TrimPrefix(pair, `le="`), `"`)
			continue
		}
		rest = append(rest, pair)
	}
	if le == "" {
		return 0, "", fmt.Errorf("_bucket series without le label {%s}", labels)
	}
	v, err := parsePromValue(le)
	if err != nil {
		return 0, "", fmt.Errorf("bad le %q: %w", le, err)
	}
	return v, strings.Join(rest, ","), nil
}

// splitLabelBody splits a canonical label body on commas outside quotes.
func splitLabelBody(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

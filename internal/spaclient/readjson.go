package spaclient

// Fast decoders for the five read responses. Each accepts exactly the
// bytes spad's hand encoders write (internal/server/readjson.go) — no
// whitespace, fields in order, plain keys — and allocates only the
// returned slice or map: attribute-name keys are interned, floats parse
// with strconv.ParseFloat as encoding/json parses them. Any other body —
// a proxy's reformatting, an older daemon, an error in the making — goes
// to json.Unmarshal, so the answer is always the one encoding/json would
// give (FuzzReadDecoders holds them to that).

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"repro/internal/emotion"
	"repro/internal/wire"
)

// decodeRecommend decodes a wire.RecommendResponse body.
func decodeRecommend(body []byte) ([]wire.Recommendation, error) {
	sc := scanner{b: body, ok: true}
	sc.lit(`{"recommendations":[`)
	// Each element is one object and the keys hold no braces, so the
	// count of '{' bounds the list (a bad body falls back anyway).
	recs := make([]wire.Recommendation, 0, max(bytes.Count(body, []byte{'{'})-1, 0))
	for sc.ok && !sc.next(']') {
		if len(recs) > 0 {
			sc.lit(",")
		}
		var r wire.Recommendation
		sc.lit(`{"action":`)
		r.Action = uint32(sc.uint(32))
		sc.lit(`,"score":`)
		r.Score = sc.float()
		sc.lit("}")
		recs = append(recs, r)
	}
	sc.lit("}")
	if sc.end() {
		return recs, nil
	}
	var resp wire.RecommendResponse
	err := json.Unmarshal(body, &resp)
	return resp.Recommendations, err
}

// decodeAdvice decodes a wire.AdviceResponse body. domain is the one the
// request asked for: the echoed name reuses its string.
func decodeAdvice(body []byte, domain string) (wire.AdviceResponse, error) {
	sc := scanner{b: body, ok: true}
	sc.lit(`{"domain":`)
	got := sc.str()
	sc.lit(`,"excitation":`)
	m := sc.weights()
	sc.lit("}")
	if sc.end() {
		if string(got) != domain {
			domain = string(got)
		}
		return wire.AdviceResponse{Domain: domain, Excitation: m}, nil
	}
	var resp wire.AdviceResponse
	err := json.Unmarshal(body, &resp)
	return resp, err
}

// decodeSensibilities decodes a wire.SensibilitiesResponse body.
func decodeSensibilities(body []byte) (map[string]float64, error) {
	sc := scanner{b: body, ok: true}
	sc.lit(`{"sensibilities":`)
	m := sc.weights()
	sc.lit("}")
	if sc.end() {
		return m, nil
	}
	var resp wire.SensibilitiesResponse
	err := json.Unmarshal(body, &resp)
	return resp.Sensibilities, err
}

// decodePropensity decodes a wire.PropensityResponse body.
func decodePropensity(body []byte) (float64, error) {
	sc := scanner{b: body, ok: true}
	sc.lit(`{"propensity":`)
	p := sc.float()
	sc.lit("}")
	if sc.end() {
		return p, nil
	}
	var resp wire.PropensityResponse
	err := json.Unmarshal(body, &resp)
	return resp.Propensity, err
}

// decodeSelectTop decodes a wire.SelectTopResponse body; the skip count
// is checked, not returned.
func decodeSelectTop(body []byte) ([]uint64, error) {
	sc := scanner{b: body, ok: true}
	sc.lit(`{"user_ids":[`)
	ids := make([]uint64, 0, bytes.Count(body, []byte{','})+1)
	for sc.ok && !sc.next(']') {
		if len(ids) > 0 {
			sc.lit(",")
		}
		ids = append(ids, sc.uint(64))
	}
	if sc.next(',') {
		sc.lit(`"skipped":`)
		sc.int()
	}
	sc.lit("}")
	if sc.end() {
		return ids, nil
	}
	var resp wire.SelectTopResponse
	err := json.Unmarshal(body, &resp)
	return resp.UserIDs, err
}

// scanner walks a body that must have exactly the expected shape; the
// first deviation clears ok, and every later step is then a no-op.
type scanner struct {
	b  []byte
	ok bool
}

// lit consumes the literal s.
func (sc *scanner) lit(s string) {
	if sc.ok && len(sc.b) >= len(s) && string(sc.b[:len(s)]) == s {
		sc.b = sc.b[len(s):]
		return
	}
	sc.ok = false
}

// next consumes c when it is the next byte.
func (sc *scanner) next(c byte) bool {
	if sc.ok && len(sc.b) > 0 && sc.b[0] == c {
		sc.b = sc.b[1:]
		return true
	}
	return false
}

// end reports whether the body matched through to its end, allowing the
// newline the encoder writes after the value.
func (sc *scanner) end() bool {
	sc.next('\n')
	return sc.ok && len(sc.b) == 0
}

// number consumes one JSON number token.
func (sc *scanner) number() []byte {
	if !sc.ok {
		return nil
	}
	n := numberLen(sc.b)
	if n == 0 {
		sc.ok = false
		return nil
	}
	tok := sc.b[:n]
	sc.b = sc.b[n:]
	return tok
}

// float consumes a number as encoding/json decodes a float64.
func (sc *scanner) float() float64 {
	tok := sc.number()
	if !sc.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		sc.ok = false
	}
	return f
}

// uint consumes a number as encoding/json decodes an unsigned integer of
// the given bit size.
func (sc *scanner) uint(bits int) uint64 {
	tok := sc.number()
	if !sc.ok {
		return 0
	}
	v, err := strconv.ParseUint(string(tok), 10, bits)
	if err != nil {
		sc.ok = false
	}
	return v
}

// int consumes a number as encoding/json decodes an int.
func (sc *scanner) int() int {
	tok := sc.number()
	if !sc.ok {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		sc.ok = false
	}
	return int(v)
}

// str consumes a string with no escapes and no control bytes that is
// valid UTF-8 — one encoding/json decodes to its raw bytes — and returns
// those bytes.
func (sc *scanner) str() []byte {
	if !sc.next('"') {
		sc.ok = false
		return nil
	}
	for i, c := range sc.b {
		switch {
		case c == '"':
			s := sc.b[:i]
			sc.b = sc.b[i+1:]
			if !utf8.Valid(s) {
				sc.ok = false
			}
			return s
		case c < 0x20 || c == '\\':
			sc.ok = false
			return nil
		}
	}
	sc.ok = false
	return nil
}

// weights consumes an object of attribute name → number, interning the
// names; a duplicate name keeps its last value, as encoding/json does.
func (sc *scanner) weights() map[string]float64 {
	sc.lit("{")
	if !sc.ok {
		return nil
	}
	m := make(map[string]float64, emotion.NumAttributes)
	for sc.ok && !sc.next('}') {
		if len(m) > 0 {
			sc.lit(",")
		}
		key := sc.str()
		sc.lit(":")
		v := sc.float()
		name, ok := internAttr(key)
		if !ok {
			sc.ok = false
		}
		m[name] = v
	}
	return m
}

// internAttr returns the attribute name equal to key.
func internAttr(key []byte) (string, bool) {
	for a := emotion.Attribute(0); a < emotion.NumAttributes; a++ {
		if name := a.String(); string(key) == name {
			return name, true
		}
	}
	return "", false
}

// numberLen returns the length of the JSON number at the start of b, or 0
// when b does not start with one: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

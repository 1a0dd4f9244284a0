package server

// Hand encoders for the five read responses (recommend, advice,
// sensibilities, propensity, select-top). Each appends exactly the bytes
// json.NewEncoder(w).Encode would write for the matching wire DTO —
// field order, float formatting, HTML-safe string escaping, sorted map
// keys and the trailing newline — straight from core's results, so the
// read path builds no DTO map or slice and runs no reflection. The golden
// and fuzz tests in readjson_test.go hold them to encoding/json's bytes:
// that equality is the wire contract.

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/cf"
	"repro/internal/emotion"
)

// sortedAttrs lists the attributes in the order encoding/json writes the
// keys of a map[string]float64 keyed by their names: sorted by name.
var sortedAttrs = func() (out [emotion.NumAttributes]emotion.Attribute) {
	for i := range out {
		out[i] = emotion.Attribute(i)
	}
	slices.SortFunc(out[:], func(a, b emotion.Attribute) int { return strings.Compare(a.String(), b.String()) })
	return out
}()

// appendRecommendResponse encodes a wire.RecommendResponse holding recs.
// The list is never null: nothing to recommend answers [].
func appendRecommendResponse(b []byte, recs []cf.Recommendation) ([]byte, error) {
	b = append(b, `{"recommendations":[`...)
	for i, r := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"action":`...)
		b = strconv.AppendUint(b, uint64(r.Action), 10)
		b = append(b, `,"score":`...)
		var err error
		if b, err = appendFloat(b, r.Score); err != nil {
			return nil, err
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...), nil
}

// appendAdviceResponse encodes a wire.AdviceResponse; excitation is
// indexed by emotion.Attribute.
func appendAdviceResponse(b []byte, domain string, excitation []float64) ([]byte, error) {
	b = append(b, `{"domain":`...)
	b = appendString(b, domain)
	b = append(b, `,"excitation":`...)
	b, err := appendAttrWeights(b, excitation)
	if err != nil {
		return nil, err
	}
	return append(b, "}\n"...), nil
}

// appendSensibilitiesResponse encodes a wire.SensibilitiesResponse; sens
// is indexed by emotion.Attribute.
func appendSensibilitiesResponse(b []byte, sens []float64) ([]byte, error) {
	b = append(b, `{"sensibilities":`...)
	b, err := appendAttrWeights(b, sens)
	if err != nil {
		return nil, err
	}
	return append(b, "}\n"...), nil
}

// appendPropensityResponse encodes a wire.PropensityResponse.
func appendPropensityResponse(b []byte, p float64) ([]byte, error) {
	b = append(b, `{"propensity":`...)
	b, err := appendFloat(b, p)
	if err != nil {
		return nil, err
	}
	return append(b, "}\n"...), nil
}

// appendSelectTopResponse encodes a wire.SelectTopResponse. A nil ids
// encodes as null, as encoding/json writes a nil slice.
func appendSelectTopResponse(b []byte, ids []uint64, skipped int) []byte {
	b = append(b, `{"user_ids":`...)
	if ids == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, id := range ids {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, id, 10)
		}
		b = append(b, ']')
	}
	if skipped != 0 {
		b = append(b, `,"skipped":`...)
		b = strconv.AppendInt(b, int64(skipped), 10)
	}
	return append(b, "}\n"...)
}

// appendAttrWeights encodes weights indexed by emotion.Attribute as the
// JSON object of a map from attribute name to weight. The names are
// plain lowercase ASCII, so they need no escaping.
func appendAttrWeights(b []byte, w []float64) ([]byte, error) {
	b = append(b, '{')
	first := true
	for _, a := range sortedAttrs {
		if int(a) >= len(w) {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, '"')
		b = append(b, a.String()...)
		b = append(b, `":`...)
		var err error
		if b, err = appendFloat(b, w[a]); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendFloat formats f as encoding/json formats a float64: the shortest
// round-tripping decimal, in exponent form below 1e-6 and from 1e21 on,
// with a one-digit negative exponent written without its leading zero. NaN
// and ±Inf have no JSON form and fail with the error encoding/json gives.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string the way json.Encoder does with
// its default HTML escaping: ", \ and control bytes escaped (\b \f \n \r
// \t by name), <, > and & as \u00XX, invalid UTF-8 as \ufffd, and U+2028
// and U+2029 as \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

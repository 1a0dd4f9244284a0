package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/cf"
	"repro/internal/core"
	"repro/internal/emotion"
	"repro/internal/wire"
)

// encodingJSON is the reference every hand encoder must equal byte for
// byte: what json.NewEncoder(w).Encode(v) writes.
func encodingJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encoding/json on %#v: %v", v, err)
	}
	return buf.Bytes()
}

// attrMap is the DTO map of advice and sensibilities for weights indexed
// by emotion.Attribute: keyed by attribute name.
func attrMap(w []float64) map[string]float64 {
	m := make(map[string]float64, len(w))
	for i, v := range w {
		m[emotion.Attribute(i).String()] = v
	}
	return m
}

// checkReadEncoders encodes the same values through every hand encoder
// and through encoding/json, and fails on the first byte of difference.
func checkReadEncoders(t *testing.T, f, g float64, action uint32, id uint64, skipped int, domain string) {
	t.Helper()
	same := func(what string, got []byte, err error, want any) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if w := encodingJSON(t, want); !bytes.Equal(got, w) {
			t.Fatalf("%s:\n got %q\nwant %q", what, got, w)
		}
	}
	recs := []cf.Recommendation{{Action: action, Score: f}, {Action: 0, Score: g}}
	got, err := appendRecommendResponse(nil, recs)
	same("recommend", got, err, wire.RecommendResponse{Recommendations: []wire.Recommendation{{Action: action, Score: f}, {Action: 0, Score: g}}})

	weights := make([]float64, emotion.NumAttributes)
	for i := range weights {
		weights[i] = f / float64(2*i-9)
	}
	weights[7] = g
	got, err = appendAdviceResponse(nil, domain, weights)
	same("advice", got, err, wire.AdviceResponse{Domain: domain, Excitation: attrMap(weights)})
	got, err = appendSensibilitiesResponse(nil, weights)
	same("sensibilities", got, err, wire.SensibilitiesResponse{Sensibilities: attrMap(weights)})
	got, err = appendPropensityResponse(nil, f)
	same("propensity", got, err, wire.PropensityResponse{Propensity: f})
	ids := []uint64{id, 0, math.MaxUint64}
	same("select-top", appendSelectTopResponse(nil, ids, skipped), nil, wire.SelectTopResponse{UserIDs: ids, Skipped: skipped})
}

// TestReadEncodersMatchEncodingJSON is the read path's wire contract: the
// hand encoders write exactly the bytes encoding/json writes for the wire
// DTOs, trailing newline included.
func TestReadEncodersMatchEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125,
		1e-6, 9.99999e-7, 1e-7, -1e-7, 1e20, 1e21, 9.99999999e20, 1.5e21, 1e-300,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		1e100, 1.234e-10,
	}
	for _, f := range floats {
		checkReadEncoders(t, f, -f/7, 42, 7, 0, "training")
	}
	for _, action := range []uint32{0, 1, math.MaxUint32} {
		checkReadEncoders(t, 0.5, 0.25, action, math.MaxUint64, 3, "training")
	}
	for _, skipped := range []int{0, 1, -1, math.MaxInt, math.MinInt} {
		checkReadEncoders(t, 0.5, 0.25, 1, 1, skipped, "training")
	}
	for _, domain := range []string{
		"", "training", "<script>&amp;</script>", "quote\" back\\slash", "\x00\x01\b\f\n\r\t\x1f\x7f",
		"bad utf-8 \xff\xfe end", "\xe2\x80", "line\u2028para\u2029end", "émotion 感情 😀", "\u2027\u202a",
	} {
		checkReadEncoders(t, 0.5, 0.25, 1, 1, 0, domain)
	}

	// Empty lists are [], not null — and a nil ranking is null, as
	// encoding/json writes it.
	got, _ := appendRecommendResponse(nil, nil)
	if want := encodingJSON(t, wire.RecommendResponse{Recommendations: []wire.Recommendation{}}); !bytes.Equal(got, want) {
		t.Fatalf("empty recommend: got %q want %q", got, want)
	}
	for _, ids := range [][]uint64{{}, nil} {
		got := appendSelectTopResponse(nil, ids, 0)
		if want := encodingJSON(t, wire.SelectTopResponse{UserIDs: ids}); !bytes.Equal(got, want) {
			t.Fatalf("select-top %#v: got %q want %q", ids, got, want)
		}
	}
	// Short weight vectors keep the attributes they have.
	got, _ = appendSensibilitiesResponse(nil, []float64{1, 2, 3})
	if want := encodingJSON(t, wire.SensibilitiesResponse{Sensibilities: attrMap([]float64{1, 2, 3})}); !bytes.Equal(got, want) {
		t.Fatalf("short sensibilities: got %q want %q", got, want)
	}
}

// FuzzReadEncoders holds the hand encoders to encoding/json over
// arbitrary field values. Non-finite floats must fail in both.
func FuzzReadEncoders(f *testing.F) {
	f.Add(0.5, -0.25, uint32(3), uint64(9), 0, "training")
	f.Add(1e-7, 1e21, uint32(math.MaxUint32), uint64(math.MaxUint64), 2, "<&>")
	f.Add(math.Copysign(0, -1), 5e-324, uint32(0), uint64(0), -1, "\xff\u2028")
	f.Fuzz(func(t *testing.T, a, b float64, action uint32, id uint64, skipped int, domain string) {
		if nonFinite := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }; nonFinite(a) || nonFinite(b) {
			// encoding/json refuses these; every encoder that carries a
			// float must refuse them too.
			for _, v := range []float64{a, b} {
				if !nonFinite(v) {
					continue
				}
				w := make([]float64, emotion.NumAttributes)
				w[3] = v
				_, e1 := appendRecommendResponse(nil, []cf.Recommendation{{Score: v}})
				_, e2 := appendAdviceResponse(nil, domain, w)
				_, e3 := appendSensibilitiesResponse(nil, w)
				_, e4 := appendPropensityResponse(nil, v)
				if e1 == nil || e2 == nil || e3 == nil || e4 == nil {
					t.Fatalf("%v encoded: errors %v, %v, %v, %v", v, e1, e2, e3, e4)
				}
			}
			return
		}
		checkReadEncoders(t, a, b, action, id, skipped, domain)
	})
}

// FuzzQueryValue holds queryValue to url.ParseQuery(raw).Get(key): the
// first value, unescaped, with ';' pairs and bad escapes dropped.
func FuzzQueryValue(f *testing.F) {
	f.Add("n=10", "n")
	f.Add("domain=a+b%20c&domain=x", "domain")
	f.Add("k=1;x=2&k=3", "k")
	f.Add("a%2=1&%6E=5&n=%zz&n=7", "n")
	f.Add("&&=&n&n=", "n")
	f.Fuzz(func(t *testing.T, raw, key string) {
		values, _ := url.ParseQuery(raw)
		if got, want := queryValue(raw, key), values.Get(key); got != want {
			t.Fatalf("queryValue(%q, %q) = %q, url.ParseQuery says %q", raw, key, got, want)
		}
	})
}

// TestNonFiniteAnswers500: a value with no JSON form must fail the request
// with a readable 500, not a 200 with an empty body. Through a hand
// encoder (a NaN propensity) and through writeJSON.
func TestNonFiniteAnswers500(t *testing.T) {
	ts, spa := testServer(t, core.Options{Shards: 2}, Options{})
	for id := uint64(1); id <= 4; id++ {
		if err := spa.Register(id, []float64{float64(id)}); err != nil {
			t.Fatal(err)
		}
	}
	trainServer(t, spa, 1, 2, 3, 4)
	if err := spa.Register(5, []float64{math.NaN()}); err != nil {
		t.Fatal(err)
	}
	if p, err := spa.Propensity(5); err != nil || !math.IsNaN(p) {
		t.Fatalf("propensity of a NaN objective: %v, %v; the test needs a NaN", p, err)
	}
	resp, err := http.Get(ts.URL + "/v1/users/5/propensity")
	if err != nil {
		t.Fatal(err)
	}
	var e wire.Error
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || err != nil || e.Message == "" {
		t.Fatalf("NaN propensity: status %d, body %+v (%v); want 500 with an error message", resp.StatusCode, e, err)
	}

	s := New(spa, Options{})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, wire.PropensityResponse{Propensity: math.Inf(1)})
	e = wire.Error{}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError || err != nil || e.Message == "" {
		t.Fatalf("writeJSON(+Inf): status %d, body %q; want 500 with an error message", rec.Code, rec.Body.Bytes())
	}
}

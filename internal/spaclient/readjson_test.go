package spaclient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/emotion"
	"repro/internal/lifelog"
	"repro/internal/wire"
)

// encoded is the body spad writes for v: the server's hand encoders are
// held byte for byte to json.NewEncoder(w).Encode (internal/server's
// TestReadEncodersMatchEncodingJSON).
func encoded(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sampleWeights() map[string]float64 {
	m := make(map[string]float64, emotion.NumAttributes)
	for a := emotion.Attribute(0); a < emotion.NumAttributes; a++ {
		m[a.String()] = (float64(a) - 4.5) / 3
	}
	m["shy"] = 1e-7
	return m
}

// readBodies are server-shaped bodies of the five read responses.
func readBodies(t testing.TB) map[string][]byte {
	recs := make([]wire.Recommendation, 10)
	for i := range recs {
		recs[i] = wire.Recommendation{Action: uint32(1000 + i*37), Score: 1 / float64(i+3)}
	}
	recs[9].Score = math.Copysign(0, -1)
	return map[string][]byte{
		"recommend":     encoded(t, wire.RecommendResponse{Recommendations: recs}),
		"advice":        encoded(t, wire.AdviceResponse{Domain: "training", Excitation: sampleWeights()}),
		"sensibilities": encoded(t, wire.SensibilitiesResponse{Sensibilities: sampleWeights()}),
		"propensity":    encoded(t, wire.PropensityResponse{Propensity: 0.7312}),
		"select-top":    encoded(t, wire.SelectTopResponse{UserIDs: []uint64{9, 3, 1 << 40, 7}, Skipped: 2}),
	}
}

// checkDecoders runs every fast decoder on body and holds it to
// json.Unmarshal: the same value when that succeeds, an error when it
// fails.
func checkDecoders(t *testing.T, body []byte) {
	t.Helper()
	same := func(what string, got any, err error, want any, werr error) {
		t.Helper()
		if werr != nil {
			if err == nil {
				t.Fatalf("%s on %q: decoded %#v, json.Unmarshal fails: %v", what, body, got, werr)
			}
			return
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on %q:\n got %#v (%v)\nwant %#v", what, body, got, err, want)
		}
	}
	{
		got, err := decodeRecommend(body)
		var want wire.RecommendResponse
		werr := json.Unmarshal(body, &want)
		same("recommend", got, err, want.Recommendations, werr)
	}
	{
		got, err := decodeAdvice(body, "training")
		var want wire.AdviceResponse
		werr := json.Unmarshal(body, &want)
		same("advice", got, err, want, werr)
	}
	{
		got, err := decodeSensibilities(body)
		var want wire.SensibilitiesResponse
		werr := json.Unmarshal(body, &want)
		same("sensibilities", got, err, want.Sensibilities, werr)
	}
	{
		got, err := decodePropensity(body)
		var want wire.PropensityResponse
		werr := json.Unmarshal(body, &want)
		same("propensity", got, err, want.Propensity, werr)
	}
	{
		got, err := decodeSelectTop(body)
		var want wire.SelectTopResponse
		werr := json.Unmarshal(body, &want)
		same("select-top", got, err, want.UserIDs, werr)
	}
}

// FuzzReadDecoders: on any bytes, each fast decoder returns exactly what
// json.Unmarshal returns, or fails where it fails.
func FuzzReadDecoders(f *testing.F) {
	for _, body := range readBodies(f) {
		f.Add(body)
		f.Add(bytes.TrimSpace(body))
	}
	for _, s := range []string{
		`{"recommendations":[]}`, `{"recommendations":null}`, `{"recommendations":[{"action":1,"score":1e400}]}`,
		`{"recommendations":[{"action":4294967296,"score":1}]}`, `{"recommendations":[{"action":-0,"score":-0}]}`,
		`{"recommendations":[{"action":1.0,"score":01}]}`, `{"recommendations":[{"action":1,"score":1}]}x`,
		`{ "recommendations" : [ {"score":2,"action":1} ] }`, `{"RECOMMENDATIONS":[{"Action":1,"Score":2}]}`,
		`{"domain":"tr\u0061ining","excitation":{"shy":1,"shy":2}}`, `{"domain":"\xff","excitation":{}}`,
		`{"domain":"x","excitation":{"bold":1}}`, `{"domain":"<>","excitation":null}`,
		`{"sensibilities":{"lively":1E+2,"hopeful":-1.5e-7}}`, `{"sensibilities":{}}`,
		`{"propensity":0.5}`, `{"propensity":"0.5"}`, `{"propensity":1e-324}`, `{"propensity":-}`,
		`{"user_ids":[]}`, `{"user_ids":null}`, `{"user_ids":[1,2],"skipped":0}`, `{"user_ids":[1],"skipped":-3}`,
		`{"user_ids":[18446744073709551616]}`, `{"user_ids":[1,]}`, `{"user_ids":[1],"skipped":1.5}`,
	} {
		f.Add([]byte(s))
		f.Add([]byte(s + "\n"))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecoders(t, body)
	})
}

// TestReadsMatchCore: every read, decoded by the fast decoders out of the
// pooled body buffers by concurrent callers, equals core's own answer bit
// for bit.
func TestReadsMatchCore(t *testing.T) {
	c, spa := liveServer(t)
	var feats [][]float64
	var labels []bool
	for u := uint64(1); u <= 6; u++ {
		if err := c.Register(u, []float64{float64(u), 1}); err != nil {
			t.Fatal(err)
		}
		var evs []lifelog.Event
		for j := 1; j <= 8; j++ {
			evs = append(evs, click(u, int(u)*5+j))
		}
		if _, err := c.Ingest(evs); err != nil {
			t.Fatal(err)
		}
		if err := c.Reward(u, []string{"lively", emotion.Attribute(u).String()}); err != nil {
			t.Fatal(err)
		}
		fv, err := spa.FeatureVector(u)
		if err != nil {
			t.Fatal(err)
		}
		feats, labels = append(feats, fv), append(labels, u%2 == 0)
	}
	if err := spa.TrainPropensity(feats, labels); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				u := uint64(1 + (g+i)%6)
				if err := checkReads(c, spa, u); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func checkReads(c *Client, spa *core.SPA, u uint64) error {
	recs, err := c.Recommend(u, 5)
	want, werr := spa.RecommendActions(u, 5)
	if err != nil || werr != nil || len(recs) != len(want) {
		return fmt.Errorf("recommend %d: %v / %v, %d vs %d", u, err, werr, len(recs), len(want))
	}
	for i := range want {
		if recs[i].Action != want[i].Action || math.Float64bits(recs[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("recommend %d [%d]: %+v, core %+v", u, i, recs[i], want[i])
		}
	}
	sameWeights := func(what string, got map[string]float64, want []float64) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s %d: %d weights, core %d", what, u, len(got), len(want))
		}
		for i, v := range want {
			if g, ok := got[emotion.Attribute(i).String()]; !ok || math.Float64bits(g) != math.Float64bits(v) {
				return fmt.Errorf("%s %d: %s = %v, core %v", what, u, emotion.Attribute(i), g, v)
			}
		}
		return nil
	}
	adv, err := c.Advise(u, "training")
	wadv, werr := spa.Advise(u, "training")
	if err != nil || werr != nil || adv.Domain != wadv.Domain {
		return fmt.Errorf("advice %d: %v / %v, domain %q", u, err, werr, adv.Domain)
	}
	if err := sameWeights("advice", adv.Excitation, wadv.Excitation[:]); err != nil {
		return err
	}
	sens, err := c.Sensibilities(u)
	wsens, werr := spa.Sensibilities(u)
	if err != nil || werr != nil {
		return fmt.Errorf("sensibilities %d: %v / %v", u, err, werr)
	}
	if err := sameWeights("sensibilities", sens, wsens); err != nil {
		return err
	}
	p, err := c.Propensity(u)
	wp, werr := spa.Propensity(u)
	if err != nil || werr != nil || math.Float64bits(p) != math.Float64bits(wp) {
		return fmt.Errorf("propensity %d: %v (%v), core %v (%v)", u, p, err, wp, werr)
	}
	ids, err := c.SelectTop(4)
	wids, werr := spa.SelectTop(4)
	if err != nil || werr != nil || !reflect.DeepEqual(ids, wids) {
		return fmt.Errorf("select-top: %v (%v), core %v (%v)", ids, err, wids, werr)
	}
	return nil
}

// TestDefaultTransportAsksNoGzip: spad never compresses, so the client's
// own transport does not offer gzip.
func TestDefaultTransportAsksNoGzip(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get("Accept-Encoding"))
		mu.Unlock()
		w.Write([]byte(`{"propensity":0.25}` + "\n"))
	}))
	defer ts.Close()
	if p, err := New(ts.URL, Options{}).Propensity(1); err != nil || p != 0.25 {
		t.Fatalf("propensity: %v %v", p, err)
	}
	if seen[0] != "" {
		t.Fatalf("Accept-Encoding: default client %q; want none", seen[0])
	}
}

package lifelog

import (
	"math"
	"slices"
	"testing"
	"time"
)

// refExtractor is the Extractor as it was built on a Sessionizer: every
// open session's events held until the session closes. It is the oracle
// the session-tracking Extractor must match bit for bit.
type refExtractor struct {
	sz      *Sessionizer
	byUser  map[uint64]*acc
	order   []uint64
	horizon time.Time
}

func newRefExtractor(idleGap time.Duration, horizon time.Time) *refExtractor {
	return &refExtractor{sz: NewSessionizer(idleGap), byUser: map[uint64]*acc{}, horizon: horizon}
}

func (x *refExtractor) Feed(e Event) error {
	done, err := x.sz.Feed(e)
	if err != nil {
		return err
	}
	a := x.byUser[e.UserID]
	if a == nil {
		a = &acc{fv: FeatureVector{UserID: e.UserID}}
		x.byUser[e.UserID] = a
		x.order = append(x.order, e.UserID)
	}
	if done != nil {
		x.closeSession(done)
	}
	a.fv.Events++
	a.lastEvent = e.Time
	switch e.Type {
	case EventEnroll:
		a.fv.Enrollments++
	case EventRating:
		a.fv.Ratings++
		a.ratingSum += float64(e.Value)
	case EventEITAnswer:
		a.fv.EITAnswers++
	case EventMessageOpen:
		a.msgOpens++
	case EventMessageClick:
		a.msgClicks++
	case EventClick, EventPageView:
		a.fv.ActionHistogram[ActionBucket(e.Action)]++
	}
	if e.Type.IsTransaction() {
		a.fv.Transactions++
	}
	return nil
}

func (x *refExtractor) closeSession(s *Session) {
	a := x.byUser[s.UserID]
	a.sessions++
	a.sessionMins += s.Duration().Minutes()
	a.sessionEvents += len(s.Events)
}

// Finish returns the vectors in first-seen order (the map the original
// returned, ordered the way Extractor.Finish promises).
func (x *refExtractor) Finish() []FeatureVector {
	for _, s := range x.sz.FlushAll() {
		x.closeSession(s)
	}
	out := make([]FeatureVector, 0, len(x.order))
	for _, id := range x.order {
		a := x.byUser[id]
		fv := a.fv
		fv.Sessions = a.sessions
		if a.sessions > 0 {
			fv.MeanSessionMinutes = a.sessionMins / float64(a.sessions)
			fv.MeanEventsPerSess = float64(a.sessionEvents) / float64(a.sessions)
		}
		if fv.Events > 0 {
			fv.TransactionRate = float64(fv.Transactions) / float64(fv.Events)
		}
		if fv.Ratings > 0 {
			fv.MeanRating = a.ratingSum / float64(fv.Ratings)
		}
		if fv.Events > 0 {
			fv.MessageOpenRate = float64(a.msgOpens) / float64(fv.Events)
		}
		if a.msgOpens > 0 {
			fv.MessageClickThrough = float64(a.msgClicks) / float64(a.msgOpens)
		}
		if !a.lastEvent.IsZero() {
			fv.RecencyDays = x.horizon.Sub(a.lastEvent).Hours() / 24
			if fv.RecencyDays < 0 {
				fv.RecencyDays = 0
			}
		}
		out = append(out, fv)
	}
	return out
}

// featureBits lists every field of fv exactly: the counts, then each
// float's IEEE-754 bits.
func featureBits(fv FeatureVector) []uint64 {
	out := []uint64{fv.UserID, uint64(fv.Events), uint64(fv.Sessions), uint64(fv.Transactions),
		uint64(fv.Enrollments), uint64(fv.Ratings), uint64(fv.EITAnswers)}
	for _, f := range []float64{fv.MeanSessionMinutes, fv.MeanEventsPerSess, fv.TransactionRate,
		fv.MeanRating, fv.MessageOpenRate, fv.MessageClickThrough, fv.RecencyDays} {
		out = append(out, math.Float64bits(f))
	}
	for _, f := range fv.ActionHistogram {
		out = append(out, math.Float64bits(f))
	}
	return out
}

func featuresByUser(fvs []FeatureVector) map[uint64]FeatureVector {
	m := make(map[uint64]FeatureVector, len(fvs))
	for _, fv := range fvs {
		m[fv.UserID] = fv
	}
	return m
}

func sameFeatures(t *testing.T, step int, got, want []FeatureVector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: %d vectors, reference %d", step, len(got), len(want))
	}
	for i := range got {
		if g, w := featureBits(got[i]), featureBits(want[i]); !slices.Equal(g, w) {
			t.Fatalf("step %d, vector %d:\n got %x\nwant %x", step, i, g, w)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzExtractorMatchesSessionizer drives the Extractor and the
// Sessionizer-based reference with the same per-user streams and demands
// identical errors and bit-identical feature vectors. The input picks the
// idle gap (zero included) and, per 4-byte step, one of 20 users (past
// the Extractor's scan limit, so its index is covered), a time step that
// can repeat a timestamp, land exactly on the gap or one nanosecond past
// it, or go backwards, an event kind (an invalid one included), and a
// payload; a first byte of 240 or more calls Finish mid-stream instead, so a second
// Finish and events after a Finish are covered too. Mid-stream finishes go
// through FinishInto over one reused buffer that starts longer than any
// run's user count and full of stale values, and the last Finish is
// repeated over a fresh dirty buffer: FinishInto must overwrite every field
// it returns. Each final vector's AppendDense behind a dirty prefix must
// append exactly Dense.
func FuzzExtractorMatchesSessionizer(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 1, 5, 0, 1, 1, 9, 0, 2, 3, 7})
	f.Add([]byte{0, 0, 1, 4, 0, 0, 2, 4, 0, 0, 2, 3, 0, 0, 15, 0, 0, 0, 15, 0})
	f.Add([]byte{3, 1, 3, 1, 1, 1, 3, 1, 1, 1, 3, 5, 2, 1, 3, 6, 3, 1, 1, 2, 9})
	f.Add([]byte{30, 0, 5, 2, 4, 1, 6, 5, 200, 2, 4, 6, 100, 0, 15, 0, 0, 3, 7, 8, 0})
	f.Add([]byte{5, 1, 0, 1, 5, 2, 4, 2, 9, 240, 0, 0, 0, 2, 1, 1, 7, 241, 0, 0, 0, 1, 2, 6, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		idleGap := time.Duration(data[0]%64) * time.Minute
		gap := idleGap
		if gap <= 0 {
			gap = 30 * time.Minute
		}
		horizon := t0.Add(48 * time.Hour)
		x := NewExtractor(idleGap, horizon)
		ref := newRefExtractor(idleGap, horizon)
		clock := map[uint64]time.Time{}
		buf := dirtyVectors(24)
		for step, p := 0, data[1:]; len(p) >= 4; step, p = step+1, p[4:] {
			if p[0]>>4 == 15 {
				buf = x.FinishInto(buf)
				sameFeatures(t, step, buf, ref.Finish())
				continue
			}
			id := uint64(p[0]%20) + 1
			at, ok := clock[id]
			if !ok {
				at = t0
			}
			switch p[1] % 6 {
			case 0: // the same timestamp again
			case 1:
				at = at.Add(gap)
			case 2:
				at = at.Add(gap + time.Nanosecond)
			case 3:
				at = at.Add(-time.Duration(p[2]%7+1) * time.Second)
			default:
				at = at.Add(time.Duration(p[1]) * 17 * time.Second)
			}
			e := Event{UserID: id, Time: at, Type: EventType(p[2] % (uint8(numEventTypes) + 1)),
				Action: uint32(p[3]) * 4, Value: float32(p[3]%5) + 0.25}
			gotErr, wantErr := x.Feed(e), ref.Feed(e)
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("step %d: Feed(%+v) = %v, reference %v", step, e, gotErr, wantErr)
			}
			if gotErr == nil {
				clock[id] = at
			}
		}
		got, want := x.Finish(), ref.Finish()
		sameFeatures(t, -1, got, want)
		sameFeatures(t, -2, x.Finish(), want)
		sameFeatures(t, -3, x.FinishInto(dirtyVectors(len(want)+3)), want)
		prefix := []float64{math.NaN(), -1}
		for i, fv := range want {
			dense := fv.AppendDense(slices.Clip(prefix))
			if !slices.Equal(float64Bits(dense[:len(prefix)]), float64Bits(prefix)) ||
				!slices.Equal(float64Bits(dense[len(prefix):]), float64Bits(fv.Dense())) {
				t.Fatalf("vector %d: AppendDense %v, Dense %v", i, dense, fv.Dense())
			}
		}
	})
}

// dirtyVectors returns n vectors with every field set to a stale value.
func dirtyVectors(n int) []FeatureVector {
	out := make([]FeatureVector, n)
	for i := range out {
		fv := &out[i]
		*fv = FeatureVector{UserID: 99, Events: 7, Sessions: 7, Transactions: 7, Enrollments: 7,
			Ratings: 7, EITAnswers: 7, MeanSessionMinutes: 7, MeanEventsPerSess: 7,
			TransactionRate: 7, MeanRating: 7, MessageOpenRate: 7, MessageClickThrough: 7, RecencyDays: 7}
		for b := range fv.ActionHistogram {
			fv.ActionHistogram[b] = 7
		}
	}
	return out
}

func float64Bits(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

func TestExtractorReset(t *testing.T) {
	x := NewExtractor(0, t0.Add(time.Hour))
	x.Grow(2)
	for id := uint64(1); id <= 20; id++ { // past the scan limit, so the index is built
		if err := x.Feed(ev(id, t0, EventClick, uint32(id))); err != nil {
			t.Fatal(err)
		}
	}
	x.Reset()
	if err := x.Feed(ev(7, t0, EventEnroll, 3)); err != nil {
		t.Fatal(err)
	}
	fvs := x.Finish()
	if len(fvs) != 1 || fvs[0].UserID != 7 || fvs[0].Events != 1 || fvs[0].Enrollments != 1 {
		t.Fatalf("after Reset: %+v", fvs)
	}
}

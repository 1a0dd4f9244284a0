package lifelog

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2006, 3, 1, 9, 0, 0, 0, time.UTC)

func ev(user uint64, at time.Time, typ EventType, action uint32) Event {
	return Event{UserID: user, Time: at, Type: typ, Action: action}
}

func TestEventTypeStrings(t *testing.T) {
	for typ := EventType(0); typ < numEventTypes; typ++ {
		if typ.String() == "" || !typ.Valid() {
			t.Fatalf("type %d bad", typ)
		}
	}
	if EventType(200).Valid() {
		t.Fatal("invalid type reported valid")
	}
}

func TestIsTransaction(t *testing.T) {
	want := map[EventType]bool{
		EventInfoRequest: true, EventEnroll: true, EventOpinion: true,
		EventMessageClick: true, EventPageView: false, EventClick: false,
		EventSearch: false, EventRating: false, EventEITAnswer: false,
		EventMessageOpen: false,
	}
	for typ, w := range want {
		if typ.IsTransaction() != w {
			t.Fatalf("%v IsTransaction=%v want %v", typ, typ.IsTransaction(), w)
		}
	}
}

func TestEventValidate(t *testing.T) {
	good := ev(1, t0, EventClick, 10)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Event{
		{UserID: 0, Time: t0, Type: EventClick},
		{UserID: 1, Type: EventClick},
		{UserID: 1, Time: t0, Type: EventType(99)},
		{UserID: 1, Time: t0, Type: EventClick, Action: ActionUniverse},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Fatalf("bad event %d validated", i)
		}
	}
}

func TestSessionizerSplitsOnIdleGap(t *testing.T) {
	sz := NewSessionizer(30 * time.Minute)
	if _, err := sz.Feed(ev(1, t0, EventPageView, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := sz.Feed(ev(1, t0.Add(10*time.Minute), EventClick, 5)); err != nil {
		t.Fatal(err)
	}
	done, err := sz.Feed(ev(1, t0.Add(2*time.Hour), EventClick, 6))
	if err != nil {
		t.Fatal(err)
	}
	if done == nil {
		t.Fatal("gap did not close session")
	}
	if len(done.Events) != 2 || done.Duration() != 10*time.Minute {
		t.Fatalf("closed session: %d events, %v", len(done.Events), done.Duration())
	}
	rest := sz.FlushAll()
	if len(rest) != 1 || len(rest[0].Events) != 1 {
		t.Fatalf("flush: %d sessions", len(rest))
	}
}

func TestSessionizerPerUserIndependence(t *testing.T) {
	sz := NewSessionizer(30 * time.Minute)
	sz.Feed(ev(1, t0, EventPageView, 0))
	sz.Feed(ev(2, t0.Add(time.Minute), EventPageView, 0))
	if sz.OpenSessions() != 2 {
		t.Fatalf("open sessions %d", sz.OpenSessions())
	}
	// User 2's event an hour later must not close user 1's session.
	done, _ := sz.Feed(ev(2, t0.Add(time.Hour), EventClick, 1))
	if done == nil || done.UserID != 2 {
		t.Fatal("wrong session closed")
	}
}

func TestSessionizerRejectsOutOfOrder(t *testing.T) {
	sz := NewSessionizer(0)
	sz.Feed(ev(1, t0.Add(time.Hour), EventPageView, 0))
	if _, err := sz.Feed(ev(1, t0, EventClick, 1)); err == nil {
		t.Fatal("out-of-order event accepted")
	}
}

func TestSessionTransactionCount(t *testing.T) {
	s := Session{Events: []Event{
		ev(1, t0, EventClick, 1),
		ev(1, t0, EventEnroll, 2),
		ev(1, t0, EventInfoRequest, 3),
	}}
	if s.TransactionCount() != 2 {
		t.Fatalf("transactions %d", s.TransactionCount())
	}
}

func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{UserID: 1, Time: t0, Type: EventClick, Action: 42, Value: 0, Campaign: 0},
		{UserID: 2, Time: t0.Add(time.Second), Type: EventRating, Action: 7, Value: 4.5, Campaign: 3},
		{UserID: 1, Time: t0.Add(2 * time.Second), Type: EventEITAnswer, Action: 12, Value: 1},
	}
	for _, e := range events {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Fatalf("count %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events", len(got))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], events[i])
		}
	}
}

func TestLogSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 100) // tiny segments
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := w.Append(ev(uint64(i+1), t0.Add(time.Duration(i)*time.Second), EventClick, uint32(i%ActionUniverse))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "events-*.log"))
	if len(segs) < 2 {
		t.Fatalf("tiny segments produced %d files", len(segs))
	}
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("read %d across segments, want %d", len(got), n)
	}
	for i, e := range got {
		if e.UserID != uint64(i+1) {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func TestLogAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	w, _ := NewWriter(dir, 0)
	w.Append(ev(1, t0, EventClick, 1))
	w.Close()
	w2, err := NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w2.Append(ev(2, t0.Add(time.Second), EventClick, 2))
	w2.Close()
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("after reopen read %d events", len(got))
	}
}

func TestLogRejectsInvalidEvent(t *testing.T) {
	dir := t.TempDir()
	w, _ := NewWriter(dir, 0)
	defer w.Close()
	if err := w.Append(Event{}); err == nil {
		t.Fatal("invalid event appended")
	}
}

func TestLogDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	w, _ := NewWriter(dir, 0)
	w.Append(ev(1, t0, EventClick, 1))
	w.Append(ev(2, t0.Add(time.Second), EventClick, 2))
	w.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "events-*.log"))
	raw, _ := os.ReadFile(segs[0])
	raw[recordLen+10] ^= 0xff // corrupt second record's payload
	os.WriteFile(segs[0], raw, 0o644)

	r, err := NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); err != nil {
		t.Fatalf("first record should be intact: %v", err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestLogEmptyDir(t *testing.T) {
	dir := t.TempDir()
	r, err := NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty dir: %v", err)
	}
}

func TestPropertyLogRoundTrip(t *testing.T) {
	f := func(users []uint8, vals []uint16) bool {
		if len(users) == 0 {
			return true
		}
		dir, err := os.MkdirTemp("", "lifelogprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		w, err := NewWriter(dir, 200)
		if err != nil {
			return false
		}
		var want []Event
		for i, u := range users {
			v := uint16(0)
			if i < len(vals) {
				v = vals[i]
			}
			e := Event{
				UserID: uint64(u) + 1,
				Time:   t0.Add(time.Duration(i) * time.Second),
				Type:   EventType(uint8(v) % uint8(numEventTypes)),
				Action: uint32(v) % ActionUniverse,
				Value:  float32(v),
			}
			if w.Append(e) != nil {
				return false
			}
			want = append(want, e)
		}
		if w.Close() != nil {
			return false
		}
		got, err := ReadAll(dir)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractorBasics(t *testing.T) {
	horizon := t0.Add(10 * 24 * time.Hour)
	x := NewExtractor(30*time.Minute, horizon)
	feed := []Event{
		ev(1, t0, EventPageView, 10),
		ev(1, t0.Add(5*time.Minute), EventClick, 20),
		ev(1, t0.Add(6*time.Minute), EventEnroll, 100),
		{UserID: 1, Time: t0.Add(7 * time.Minute), Type: EventRating, Action: 100, Value: 4},
		ev(1, t0.Add(3*time.Hour), EventClick, 21), // second session
		ev(2, t0, EventEITAnswer, 0),
	}
	for _, e := range feed {
		if err := x.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	fvs := featuresByUser(x.Finish())
	u1 := fvs[1]
	if u1.Events != 5 || u1.Sessions != 2 || u1.Enrollments != 1 || u1.Ratings != 1 {
		t.Fatalf("u1 = %+v", u1)
	}
	if u1.Transactions != 1 {
		t.Fatalf("u1 transactions %d", u1.Transactions)
	}
	if u1.MeanRating != 4 {
		t.Fatalf("mean rating %v", u1.MeanRating)
	}
	wantRecency := horizon.Sub(t0.Add(3*time.Hour)).Hours() / 24
	if diff := u1.RecencyDays - wantRecency; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("recency %v want %v", u1.RecencyDays, wantRecency)
	}
	u2 := fvs[2]
	if u2.EITAnswers != 1 || u2.Sessions != 1 {
		t.Fatalf("u2 = %+v", u2)
	}
}

func TestExtractorActionHistogram(t *testing.T) {
	x := NewExtractor(0, t0.Add(time.Hour))
	x.Feed(ev(1, t0, EventClick, 0))
	x.Feed(ev(1, t0.Add(time.Second), EventClick, ActionUniverse-1))
	fv := featuresByUser(x.Finish())[1]
	if fv.ActionHistogram[0] != 1 {
		t.Fatalf("bucket 0 = %v", fv.ActionHistogram[0])
	}
	if fv.ActionHistogram[NumActionBuckets-1] != 1 {
		t.Fatalf("last bucket = %v", fv.ActionHistogram[NumActionBuckets-1])
	}
}

func TestActionBucketRange(t *testing.T) {
	f := func(a uint32) bool {
		b := ActionBucket(a % ActionUniverse)
		return b >= 0 && b < NumActionBuckets
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDenseLayout(t *testing.T) {
	fv := FeatureVector{Events: 3, MeanRating: 4.5}
	d := fv.Dense()
	if len(d) != DenseLen {
		t.Fatalf("dense len %d want %d", len(d), DenseLen)
	}
	names := DenseNames()
	if len(names) != DenseLen {
		t.Fatalf("names len %d", len(names))
	}
	if d[0] != math.Log1p(3) || d[9] != 4.5 {
		t.Fatalf("dense values misplaced: %v", d[:11])
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate name %s", n)
		}
		seen[n] = true
	}
}

func BenchmarkAppend(b *testing.B) {
	dir := b.TempDir()
	w, err := NewWriter(dir, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	e := ev(1, t0, EventClick, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Time = t0.Add(time.Duration(i) * time.Millisecond)
		if err := w.Append(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractorFeed(b *testing.B) {
	x := NewExtractor(30*time.Minute, t0.Add(24*time.Hour))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := ev(uint64(i%1000+1), t0.Add(time.Duration(i)*time.Second), EventClick, uint32(i%ActionUniverse))
		if err := x.Feed(e); err != nil {
			b.Fatal(err)
		}
	}
}

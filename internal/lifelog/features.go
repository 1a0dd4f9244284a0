package lifelog

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// FeatureVector is the pre-processor's per-user digest of a raw stream: the
// behavioural (subjective) attributes the Attributes Manager fuses with
// socio-demographics and EIT-derived emotional attributes.
type FeatureVector struct {
	UserID uint64

	// Volume features.
	Events       int
	Sessions     int
	Transactions int
	Enrollments  int
	Ratings      int
	EITAnswers   int

	// Intensity features.
	MeanSessionMinutes  float64
	MeanEventsPerSess   float64
	TransactionRate     float64 // transactions / events
	MeanRating          float64
	MessageOpenRate     float64 // opens / (opens + unopened campaign touches unknown here: opens per campaign event)
	MessageClickThrough float64 // clicks / opens

	// Recency: days between last event and the extraction horizon.
	RecencyDays float64

	// ActionHistogram counts clicks per action bucket (coarsened to
	// NumActionBuckets so the vector stays dense).
	ActionHistogram [NumActionBuckets]float64
}

// NumActionBuckets coarsens the 984-action universe into dense buckets for
// the feature vector; the raw sparse histogram lives in internal/cf.
const NumActionBuckets = 24

// ActionBucket maps an action ordinal to its bucket.
func ActionBucket(action uint32) int {
	return int(action) * NumActionBuckets / ActionUniverse
}

// Extractor accumulates per-user features from a stream — the online half
// of the LifeLogs Pre-processor Agent. It cuts each user's events into
// sessions exactly as a Sessionizer with the same idle gap would, but
// keeps only what the features need of the open session (its start, last
// event and length), not its events.
type Extractor struct {
	idleGap time.Duration
	horizon time.Time
	accs    []acc // in first-seen order
	// byUser indexes accs once there are more than linearUsers of them;
	// below that a scan is cheaper than a map.
	byUser map[uint64]int
}

// linearUsers is how many users an Extractor finds by scanning.
const linearUsers = 16

type acc struct {
	fv            FeatureVector
	sessions      int
	sessionMins   float64
	sessionEvents int
	ratingSum     float64
	msgOpens      int
	msgClicks     int
	lastEvent     time.Time
	// The open session, if open: it began at sessStart, and its last
	// event is lastEvent. Finish closes it.
	open      bool
	sessStart time.Time
	sessLen   int
}

// NewExtractor creates an extractor; horizon is the "now" used for recency
// (typically the campaign send time). A zero idleGap means 30 minutes.
func NewExtractor(idleGap time.Duration, horizon time.Time) *Extractor {
	if idleGap <= 0 {
		idleGap = 30 * time.Minute
	}
	return &Extractor{idleGap: idleGap, horizon: horizon}
}

// Grow reserves room for n more users.
func (x *Extractor) Grow(n int) { x.accs = slices.Grow(x.accs, n) }

// Reset forgets every user, keeping the allocated room.
func (x *Extractor) Reset() {
	x.accs = x.accs[:0]
	x.byUser = nil
}

// user returns the accumulator of id, adding it on its first event.
func (x *Extractor) user(id uint64) *acc {
	if x.byUser != nil {
		if i, ok := x.byUser[id]; ok {
			return &x.accs[i]
		}
	} else {
		for i := range x.accs {
			if x.accs[i].fv.UserID == id {
				return &x.accs[i]
			}
		}
	}
	x.accs = append(x.accs, acc{fv: FeatureVector{UserID: id}})
	switch {
	case x.byUser != nil:
		x.byUser[id] = len(x.accs) - 1
	case len(x.accs) > linearUsers:
		x.byUser = make(map[uint64]int, 2*len(x.accs))
		for i := range x.accs {
			x.byUser[x.accs[i].fv.UserID] = i
		}
	}
	return &x.accs[len(x.accs)-1]
}

// Feed consumes one event. Events must arrive in non-decreasing time order
// per user within a session; a violation returns the Sessionizer's
// out-of-order error and leaves the extractor as it was.
func (x *Extractor) Feed(e Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	a := x.user(e.UserID)
	switch {
	case !a.open:
		a.openSession(e.Time)
	case e.Time.Before(a.lastEvent):
		return fmt.Errorf("lifelog: out-of-order event for user %d: %v before %v", e.UserID, e.Time, a.lastEvent)
	case e.Time.Sub(a.lastEvent) > x.idleGap:
		a.closeSession()
		a.openSession(e.Time)
	default:
		a.sessLen++
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

func (a *acc) openSession(at time.Time) {
	a.open = true
	a.sessStart = at
	a.sessLen = 1
}

func (a *acc) closeSession() {
	a.open = false
	a.sessions++
	a.sessionMins += a.lastEvent.Sub(a.sessStart).Minutes()
	a.sessionEvents += a.sessLen
}

// Finish closes open sessions and returns the per-user feature vectors in
// the order the users first appeared. Feeding may continue afterwards: a
// user's next event opens a new session.
func (x *Extractor) Finish() []FeatureVector { return x.FinishInto(nil) }

// FinishInto is Finish writing into dst's storage: it returns dst resized
// to one vector per user, every element overwritten, growing it only when
// it is too short. The caller owns the result until its next FinishInto
// over the same buffer.
func (x *Extractor) FinishInto(dst []FeatureVector) []FeatureVector {
	out := slices.Grow(dst[:0], len(x.accs))[:len(x.accs)]
	for i := range x.accs {
		a := &x.accs[i]
		if a.open {
			a.closeSession()
		}
		fv := &out[i]
		*fv = a.fv
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
	}
	return out
}

// Dense flattens the vector into the fixed feature layout used by the
// learners: 11 scalars followed by the action histogram. Count features are
// log1p-compressed — raw click-stream counts span orders of magnitude, and
// the linear learners downstream converge far better on the compressed
// scale.
func (fv FeatureVector) Dense() []float64 {
	return fv.AppendDense(make([]float64, 0, DenseLen))
}

// AppendDense appends the Dense layout to dst and returns the extended
// slice; with DenseLen spare capacity it allocates nothing.
func (fv FeatureVector) AppendDense(dst []float64) []float64 {
	out := append(dst,
		log1p(float64(fv.Events)),
		log1p(float64(fv.Sessions)),
		log1p(float64(fv.Transactions)),
		log1p(float64(fv.Enrollments)),
		log1p(float64(fv.Ratings)),
		log1p(float64(fv.EITAnswers)),
		fv.MeanSessionMinutes,
		fv.MeanEventsPerSess,
		fv.TransactionRate,
		fv.MeanRating,
		fv.RecencyDays,
	)
	for _, h := range fv.ActionHistogram {
		out = append(out, log1p(h))
	}
	return out
}

func log1p(x float64) float64 { return math.Log1p(x) }

// DenseLen is the length of the Dense layout.
const DenseLen = 11 + NumActionBuckets

// DenseNames labels the Dense layout, index-aligned; used when registering
// subjective attributes.
func DenseNames() []string {
	names := []string{
		"ll_events", "ll_sessions", "ll_transactions", "ll_enrollments",
		"ll_ratings", "ll_eit_answers", "ll_mean_session_min",
		"ll_mean_events_per_sess", "ll_transaction_rate", "ll_mean_rating",
		"ll_recency_days",
	}
	for i := 0; i < NumActionBuckets; i++ {
		names = append(names, "ll_action_bucket_"+itoa2(i))
	}
	return names
}

func itoa2(i int) string {
	const digits = "0123456789"
	return string([]byte{digits[i/10], digits[i%10]})
}

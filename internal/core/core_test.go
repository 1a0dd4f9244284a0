package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/attributes"
	"repro/internal/clock"
	"repro/internal/emotion"
	"repro/internal/lifelog"
	"repro/internal/messaging"
	"repro/internal/rng"
	"repro/internal/sum"
	"repro/internal/values"
)

var t0 = clock.Epoch

func newSPA(t *testing.T, dir string) *SPA {
	t.Helper()
	s, err := New(Options{DataDir: dir, Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRegisterAndProfile(t *testing.T) {
	s := newSPA(t, "")
	if err := s.Register(1, []float64{30, 1, 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(1, nil); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := s.Register(0, nil); err == nil {
		t.Fatal("zero user accepted")
	}
	p, err := s.Profile(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.UserID != 1 || p.Objective[0] != 30 {
		t.Fatalf("profile %+v", p)
	}
	if _, err := s.Profile(99); !errors.Is(err, ErrNoProfile) {
		t.Fatalf("missing profile: %v", err)
	}
	if s.Users() != 1 {
		t.Fatalf("users %d", s.Users())
	}
}

func TestProfileCopyIsolation(t *testing.T) {
	s := newSPA(t, "")
	s.Register(1, []float64{5})
	p, _ := s.Profile(1)
	p.Objective[0] = 999
	p2, _ := s.Profile(1)
	if p2.Objective[0] != 5 {
		t.Fatal("profile copy leaked internal state")
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{DataDir: dir, Clock: clock.NewSimulated(t0)})
	if err != nil {
		t.Fatal(err)
	}
	s.Register(7, []float64{42})
	item, _ := s.NextQuestion(7)
	if err := s.SubmitAnswer(7, emotion.Answer{ItemID: item.ID, Option: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{DataDir: dir, Clock: clock.NewSimulated(t0.Add(time.Hour))})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Users() != 1 {
		t.Fatalf("reopened users %d", s2.Users())
	}
	p, err := s2.Profile(7)
	if err != nil {
		t.Fatal(err)
	}
	if p.AnsweredItems != 1 || p.Objective[0] != 42 {
		t.Fatalf("reopened profile %+v", p)
	}
}

func TestGradualEITFlow(t *testing.T) {
	s := newSPA(t, "")
	s.Register(1, nil)
	for i := 0; i < 5; i++ {
		item, err := s.NextQuestion(1)
		if err != nil {
			t.Fatal(err)
		}
		if item.ID != i {
			t.Fatalf("question %d has id %d", i, item.ID)
		}
		if err := s.SubmitAnswer(1, emotion.Answer{ItemID: item.ID, Option: 0}); err != nil {
			t.Fatal(err)
		}
	}
	sens, err := s.Sensibilities(1)
	if err != nil {
		t.Fatal(err)
	}
	any := false
	for _, w := range sens {
		if w > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("answers produced no sensibility")
	}
	if _, err := s.NextQuestion(42); !errors.Is(err, ErrNoProfile) {
		t.Fatal("question for unknown user")
	}
}

func TestEITBankCyclesViaFacade(t *testing.T) {
	s := newSPA(t, "")
	s.Register(1, nil)
	bankLen := 64
	for i := 0; i < bankLen; i++ {
		item, err := s.NextQuestion(1)
		if err != nil {
			t.Fatal(err)
		}
		s.SubmitAnswer(1, emotion.Answer{ItemID: item.ID, Option: 2})
	}
	item, err := s.NextQuestion(1)
	if err != nil {
		t.Fatalf("bank did not cycle: %v", err)
	}
	if item.ID != 0 {
		t.Fatalf("cycled item id %d", item.ID)
	}
}

func TestIngestEvents(t *testing.T) {
	s := newSPA(t, "")
	s.Register(1, nil)
	events := []lifelog.Event{
		{UserID: 1, Time: t0.Add(-2 * time.Hour), Type: lifelog.EventClick, Action: 5},
		{UserID: 1, Time: t0.Add(-110 * time.Minute), Type: lifelog.EventEnroll, Action: 10},
		{UserID: 99, Time: t0.Add(-1 * time.Hour), Type: lifelog.EventClick, Action: 6},
	}
	processed, skipped, err := s.BatchIngest(events)
	if err != nil {
		t.Fatal(err)
	}
	if processed != 2 || skipped != 1 {
		t.Fatalf("processed %d skipped %d", processed, skipped)
	}
	p, _ := s.Profile(1)
	if p.Subjective[0] != math.Log1p(2) { // ll_events (log-compressed)
		t.Fatalf("subjective events %v", p.Subjective[0])
	}
	// Empty batch is fine.
	if _, _, err := s.BatchIngest(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRewardPunishViaFacade(t *testing.T) {
	s := newSPA(t, "")
	s.Register(1, nil)
	if err := s.Reward(1, []emotion.Attribute{emotion.Hopeful}); err != nil {
		t.Fatal(err)
	}
	sens, _ := s.Sensibilities(1)
	if sens[emotion.Hopeful] <= 0 {
		t.Fatal("reward had no effect")
	}
	before := sens[emotion.Hopeful]
	if err := s.Punish(1, []emotion.Attribute{emotion.Hopeful}); err != nil {
		t.Fatal(err)
	}
	sens, _ = s.Sensibilities(1)
	if sens[emotion.Hopeful] >= before {
		t.Fatal("punish had no effect")
	}
	if err := s.Reward(99, nil); !errors.Is(err, ErrNoProfile) {
		t.Fatal("reward unknown user")
	}
	if err := s.Punish(99, nil); !errors.Is(err, ErrNoProfile) {
		t.Fatal("punish unknown user")
	}
}

func TestDominantAttributesAndAdvise(t *testing.T) {
	s := newSPA(t, "")
	s.Register(1, nil)
	for i := 0; i < 6; i++ {
		s.Reward(1, []emotion.Attribute{emotion.Motivated})
	}
	dom, err := s.DominantAttributes(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dom) == 0 || dom[0].AttrID != int(emotion.Motivated) {
		t.Fatalf("dominant %v", dom)
	}
	adv, err := s.Advise(1, "training")
	if err != nil {
		t.Fatal(err)
	}
	if adv.Excitation[emotion.Motivated] <= 0 {
		t.Fatalf("advice excitation %v", adv.Excitation[emotion.Motivated])
	}
}

func TestAssignMessageViaFacade(t *testing.T) {
	s := newSPA(t, "")
	s.Register(1, nil)
	product := messaging.Product{
		Name:            "Course X",
		SalesAttributes: []emotion.Attribute{emotion.Motivated, emotion.Hopeful},
	}
	// Fresh profile → standard message.
	asg, err := s.AssignMessage(1, product)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Case != messaging.CaseStandard {
		t.Fatalf("fresh profile case %v", asg.Case)
	}
	// Build sensibility then re-assign.
	for i := 0; i < 8; i++ {
		s.Reward(1, []emotion.Attribute{emotion.Motivated})
	}
	asg, err = s.AssignMessage(1, product)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Case == messaging.CaseStandard {
		t.Fatal("built sensibility ignored")
	}
	if asg.Message.Attribute != emotion.Motivated {
		t.Fatalf("assigned %v", asg.Message.Attribute)
	}
}

func TestTrainAndSelect(t *testing.T) {
	s := newSPA(t, "")
	r := rng.New(3)
	const n = 300
	// Register users; give responders distinctive objective attributes.
	responders := map[uint64]bool{}
	for id := uint64(1); id <= n; id++ {
		hot := r.Bool(0.3)
		responders[id] = hot
		x := []float64{r.NormFloat64(), r.NormFloat64()}
		if hot {
			x[0] += 2.5
		}
		if err := s.Register(id, x); err != nil {
			t.Fatal(err)
		}
	}
	var feats [][]float64
	var labels []bool
	for id := uint64(1); id <= n; id++ {
		fv, err := s.FeatureVector(id)
		if err != nil {
			t.Fatal(err)
		}
		feats = append(feats, fv)
		labels = append(labels, responders[id])
	}
	if err := s.TrainPropensity(feats, labels); err != nil {
		t.Fatal(err)
	}
	top, err := s.SelectTop(50)
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	for _, id := range top {
		if responders[id] {
			hot++
		}
	}
	if hot < 35 {
		t.Fatalf("selection found only %d/50 responders", hot)
	}
}

func TestPropensityBeforeTraining(t *testing.T) {
	s := newSPA(t, "")
	s.Register(1, []float64{1})
	if _, err := s.Propensity(1); !errors.Is(err, ErrNoModel) {
		t.Fatalf("untrained propensity: %v", err)
	}
	if _, err := s.SelectTop(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestTrainPropensityValidation(t *testing.T) {
	s := newSPA(t, "")
	if err := s.TrainPropensity([][]float64{{1}}, []bool{true, false}); err == nil {
		t.Fatal("mismatched labels accepted")
	}
	if err := s.TrainPropensity(nil, nil); err == nil {
		t.Fatal("empty training accepted")
	}
}

func TestRegistryVocabulary(t *testing.T) {
	s := newSPA(t, "")
	reg := s.Registry()
	if len(reg.OfKind(attributes.Objective)) != 8 {
		t.Fatalf("objective attrs %d", len(reg.OfKind(attributes.Objective)))
	}
	if len(reg.OfKind(attributes.Subjective)) != lifelog.DenseLen {
		t.Fatalf("subjective attrs %d", len(reg.OfKind(attributes.Subjective)))
	}
	if len(reg.OfKind(attributes.Emotional)) != emotion.NumAttributes {
		t.Fatalf("emotional attrs %d", len(reg.OfKind(attributes.Emotional)))
	}
}

func TestBadParamsRejected(t *testing.T) {
	bad := sum.Params{EITAlpha: 5, RewardAlpha: 0.2, ActivationStep: 0.2, HalfLifeDays: 10}
	if _, err := New(Options{Params: bad}); err == nil {
		t.Fatal("invalid SUM params accepted")
	}
}

func BenchmarkFacadeSubmitAnswer(b *testing.B) {
	s, err := New(Options{Clock: clock.NewSimulated(t0)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.Register(1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		item, err := s.NextQuestion(1)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.SubmitAnswer(1, emotion.Answer{ItemID: item.ID, Option: i % 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHumanValuesScale(t *testing.T) {
	s := newSPA(t, "")
	s.Register(1, nil)
	if _, err := s.ValuesScale(1); err == nil {
		t.Fatal("scale without observations")
	}
	if err := s.ObserveValueAction(99, "enroll_career_course", 1); !errors.Is(err, ErrNoProfile) {
		t.Fatal("unknown user observed")
	}
	for i := 0; i < 5; i++ {
		if err := s.ObserveValueAction(1, "enroll_career_course", 1); err != nil {
			t.Fatal(err)
		}
	}
	scale, err := s.ValuesScale(1)
	if err != nil {
		t.Fatal(err)
	}
	if scale[values.Achievement] <= scale[values.Hedonism] {
		t.Fatalf("career actions did not move scale: %v", scale)
	}
	// Coherence against a matching stated scale.
	var stated values.Scale
	stated[values.Achievement] = 0.6
	stated[values.SelfDirection] = 0.4
	if err := s.SetExplicitValues(1, stated); err != nil {
		t.Fatal(err)
	}
	c, err := s.ValuesCoherence(1)
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.5 {
		t.Fatalf("aligned coherence %v", c)
	}
}

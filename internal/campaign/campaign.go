// Package campaign reproduces the paper's business case (§5): ten push and
// newsletter campaigns over a large population, with SPA's two functions —
//
//	"1. The recommendation function: to send in an individualized manner the
//	 action with most probabilities of execution by the user.
//	 2. The selection function: to choose the user with greater propensity to
//	 follow a course in the recommender system." (§5.4)
//
// The pipeline wires the substrates together: synth population → Gradual
// EIT warmup + WebLog ingest (profile building) → SVM propensity training on
// historical campaigns → the ten evaluation campaigns producing Fig. 6(a)
// (cumulative redemption curve) and Fig. 6(b) (per-campaign predictive
// scores).
package campaign

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/emotion"
	"repro/internal/lifelog"
	"repro/internal/messaging"
	"repro/internal/rng"
	"repro/internal/sum"
	"repro/internal/svm"
	"repro/internal/synth"
)

// Kind distinguishes the two campaign channels of the deployment
// ("eight Push and two newsletters campaigns").
type Kind int

const (
	// Push is a push communication.
	Push Kind = iota
	// Newsletter is an e-mail newsletter.
	Newsletter
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Push:
		return "push"
	case Newsletter:
		return "newsletter"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Campaign is one communication wave.
type Campaign struct {
	ID      int
	Kind    Kind
	Product messaging.Product
}

// DefaultCampaigns returns the paper's mix: eight push and two newsletter
// campaigns, each selling a training course whose sales attributes rotate
// through the emotional vocabulary.
func DefaultCampaigns() []Campaign {
	courses := []struct {
		name  string
		attrs []emotion.Attribute
	}{
		{"Course in Digital Marketing", []emotion.Attribute{emotion.Enthusiastic, emotion.Motivated, emotion.Lively, emotion.Stimulated}},
		{"MBA Essentials", []emotion.Attribute{emotion.Motivated, emotion.Hopeful, emotion.Impatient}},
		{"English B2 Certification", []emotion.Attribute{emotion.Hopeful, emotion.Shy, emotion.Frightened, emotion.Motivated}},
		{"Web Development Bootcamp", []emotion.Attribute{emotion.Stimulated, emotion.Enthusiastic, emotion.Impatient}},
		{"Accounting Fundamentals", []emotion.Attribute{emotion.Motivated, emotion.Apathetic, emotion.Hopeful}},
		{"Graphic Design Studio", []emotion.Attribute{emotion.Lively, emotion.Stimulated, emotion.Empathic}},
		{"Nursing Assistant Diploma", []emotion.Attribute{emotion.Empathic, emotion.Hopeful, emotion.Frightened}},
		{"Project Management (PMP)", []emotion.Attribute{emotion.Motivated, emotion.Impatient, emotion.Enthusiastic}},
		{"Human Resources Newsletter Special", []emotion.Attribute{emotion.Empathic, emotion.Motivated, emotion.Shy}},
		{"Languages Newsletter Special", []emotion.Attribute{emotion.Hopeful, emotion.Shy, emotion.Enthusiastic, emotion.Apathetic}},
	}
	out := make([]Campaign, len(courses))
	for i, c := range courses {
		kind := Push
		if i >= 8 {
			kind = Newsletter
		}
		out[i] = Campaign{
			ID:      i + 1,
			Kind:    kind,
			Product: messaging.Product{Name: c.name, SalesAttributes: c.attrs},
		}
	}
	return out
}

// FeatureSet selects which SUM blocks feed the learner (the A1 ablation).
type FeatureSet struct {
	Objective  bool
	Subjective bool
	Emotional  bool
}

// FullFeatures enables all three blocks (the SPA configuration).
func FullFeatures() FeatureSet { return FeatureSet{Objective: true, Subjective: true, Emotional: true} }

// ObjectiveOnly is the pre-SPA baseline configuration.
func ObjectiveOnly() FeatureSet { return FeatureSet{Objective: true} }

// String implements fmt.Stringer.
func (fs FeatureSet) String() string {
	s := ""
	if fs.Objective {
		s += "O"
	}
	if fs.Subjective {
		s += "S"
	}
	if fs.Emotional {
		s += "E"
	}
	if s == "" {
		return "none"
	}
	return s
}

// Pipeline owns the simulation state: population, profiles, messaging and
// the virtual clock.
type Pipeline struct {
	Pop      *synth.Population
	Model    *sum.Model
	Profiles []*sum.Profile // index = userID-1
	MsgDB    *messaging.DB

	// SensibilityThreshold feeds the Messaging Agent (§5.3 step 3).
	SensibilityThreshold float64
	// Policy is the multi-match rule for message assignment.
	Policy messaging.Policy

	now time.Time
	r   *rng.RNG
}

// NewPipeline initializes profiles (objective attributes filled from the
// population; subjective and emotional blocks empty until ingest/warmup).
func NewPipeline(pop *synth.Population, seed uint64) (*Pipeline, error) {
	if pop == nil {
		return nil, errors.New("campaign: nil population")
	}
	model, err := sum.NewModel(sum.DefaultParams(), nil)
	if err != nil {
		return nil, err
	}
	start := time.Date(2006, time.January, 2, 0, 0, 0, 0, time.UTC)
	pl := &Pipeline{
		Pop:                  pop,
		Model:                model,
		MsgDB:                messaging.NewDB(),
		SensibilityThreshold: 0.25,
		Policy:               messaging.BySensibility,
		now:                  start,
		r:                    rng.New(seed ^ 0x5eed),
	}
	pl.Profiles = make([]*sum.Profile, pop.Len())
	for i := range pop.Users {
		u := &pop.Users[i]
		p := sum.NewProfile(u.ID, start)
		p.Objective = append([]float64(nil), u.Objective...)
		p.Subjective = make([]float64, lifelog.DenseLen)
		pl.Profiles[i] = p
	}
	return pl, nil
}

// Now returns the pipeline's virtual time.
func (pl *Pipeline) Now() time.Time { return pl.now }

// Advance moves the virtual clock.
func (pl *Pipeline) Advance(d time.Duration) { pl.now = pl.now.Add(d) }

// IngestWebLogs generates `weeks` of organic browsing and folds the
// extracted per-user features into the subjective profile block — the
// LifeLogs Pre-processor path.
func (pl *Pipeline) IngestWebLogs(weeks int, seed uint64) (events int, err error) {
	x := lifelog.NewExtractor(30*time.Minute, pl.now.Add(time.Duration(weeks)*7*24*time.Hour))
	n := 0
	err = pl.Pop.GenerateWebLogs(synth.WebLogConfig{
		Start:           pl.now,
		Weeks:           weeks,
		Seed:            seed,
		TransactionBias: 0.35,
	}, func(e lifelog.Event) error {
		n++
		return x.Feed(e)
	})
	if err != nil {
		return n, err
	}
	for _, fv := range x.Finish() {
		pl.Profiles[fv.UserID-1].Subjective = fv.Dense()
	}
	pl.Advance(time.Duration(weeks) * 7 * 24 * time.Hour)
	return n, nil
}

// WarmupEIT runs `touches` rounds of the Gradual EIT marketing strategy
// (§5.2): each round sends one question to every user; users answer
// according to their latent state and answer rate; answers update the SUM.
// Returns the total number of answers collected.
func (pl *Pipeline) WarmupEIT(touches int) (answers int, err error) {
	bank := pl.Model.Bank()
	for t := 0; t < touches; t++ {
		for i := range pl.Profiles {
			p := pl.Profiles[i]
			item, err := pl.Model.NextItem(p)
			if errors.Is(err, emotion.ErrExhausted) {
				// The deployment keeps asking indefinitely (one question per
				// touch, §5.2); cycle the bank with fresh phrasings.
				item, err = pl.Model.Bank().Item(p.AnsweredItems % pl.Model.Bank().Len())
			}
			if err != nil {
				return answers, err
			}
			u := &pl.Pop.Users[i]
			opt, err := pl.Pop.AnswerEIT(u, item, bank, pl.r)
			if err != nil {
				return answers, err
			}
			if opt < 0 {
				continue // ignored question — the sparsity problem
			}
			if err := pl.Model.ApplyEITAnswer(p, emotion.Answer{ItemID: item.ID, Option: opt}, pl.now); err != nil {
				return answers, err
			}
			answers++
		}
		pl.Advance(24 * time.Hour) // one touch per day during warmup
	}
	return answers, nil
}

// assignMessage runs the Messaging Agent for one user and campaign.
func (pl *Pipeline) assignMessage(p *sum.Profile, c Campaign) (messaging.Assignment, error) {
	sens := pl.Model.Sensibilities(p)
	return pl.MsgDB.Assign(c.Product, sens, pl.SensibilityThreshold, pl.Policy)
}

// touchOutcome simulates one contacted user: message assignment, ground-
// truth response draw, and reward/punish SUM update.
func (pl *Pipeline) touchOutcome(i int, c Campaign, updateSUM bool) (responded bool, asg messaging.Assignment, err error) {
	p := pl.Profiles[i]
	u := &pl.Pop.Users[i]
	asg, err = pl.assignMessage(p, c)
	if err != nil {
		return false, asg, err
	}
	standard := asg.Case == messaging.CaseStandard
	prob := pl.Pop.RespondProbability(u, asg.Message.Attribute, standard)
	responded = pl.r.Bool(prob)
	if updateSUM && !standard {
		attrs := []emotion.Attribute{asg.Message.Attribute}
		if responded {
			pl.Model.Reward(p, attrs, pl.now)
		} else {
			pl.Model.Punish(p, attrs, pl.now)
		}
	}
	return responded, asg, nil
}

// Features materializes the learner input for user i under the feature set:
// the SUM blocks plus, when emotional features are on, the Advice-stage
// campaign-match block — SPA's activation/inhibition signal for the
// product's sales attributes (§3 stage 2). The match block is what lets the
// propensity model see *this campaign's* emotional resonance rather than
// only campaign-agnostic state.
func (pl *Pipeline) Features(i int, fs FeatureSet, c Campaign) []float64 {
	x := pl.Profiles[i].FeatureVector(fs.Objective, fs.Subjective, fs.Emotional)
	if fs.Emotional {
		x = append(x, pl.matchBlock(i, c)...)
	}
	return x
}

// MatchBlockLen is the length of the campaign-match feature block.
const MatchBlockLen = 3

// matchBlock summarizes the user's estimated emotional resonance with the
// campaign product: the maximum, mean and assigned-attribute signed
// sensibility over the product's sales attributes. All values derive from
// the SUM estimate (never from ground-truth latents).
func (pl *Pipeline) matchBlock(i int, c Campaign) []float64 {
	p := pl.Profiles[i]
	maxM := 0.0
	sum := 0.0
	first := true
	for _, a := range c.Product.SalesAttributes {
		s := p.Emotional[a]
		m := s.Activation * float64(s.Valence)
		if first || m > maxM {
			maxM = m
			first = false
		}
		sum += m
	}
	mean := 0.0
	if n := len(c.Product.SalesAttributes); n > 0 {
		mean = sum / float64(n)
	}
	// Assigned-attribute match: what the Messaging Agent would send.
	assigned := 0.0
	if asg, err := pl.assignMessage(p, c); err == nil && asg.Case != messaging.CaseStandard {
		s := p.Emotional[asg.Message.Attribute]
		assigned = s.Activation * float64(s.Valence)
	}
	return []float64{maxM, mean, assigned}
}

// TrainingData simulates historical campaigns with random targeting (the
// paper targets users "chosen in random way") and returns the labelled
// dataset: features at send time, label = responded.
func (pl *Pipeline) TrainingData(campaigns []Campaign, fs FeatureSet, sampleFrac float64) (*svm.Dataset, error) {
	if sampleFrac <= 0 || sampleFrac > 1 {
		return nil, errors.New("campaign: sample fraction out of (0,1]")
	}
	d := &svm.Dataset{}
	for _, c := range campaigns {
		for i := range pl.Profiles {
			if !pl.r.Bool(sampleFrac) {
				continue
			}
			x := pl.Features(i, fs, c)
			responded, _, err := pl.touchOutcome(i, c, true)
			if err != nil {
				return nil, err
			}
			y := -1
			if responded {
				y = 1
			}
			d.X = append(d.X, x)
			d.Y = append(d.Y, y)
		}
		pl.Advance(7 * 24 * time.Hour)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: training data: %w", err)
	}
	return d, nil
}

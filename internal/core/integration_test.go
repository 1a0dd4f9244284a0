package core

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/emotion"
	"repro/internal/lifelog"
	"repro/internal/messaging"
	"repro/internal/rng"
	"repro/internal/synth"
)

// TestEndToEndMiniDeployment drives the whole facade the way a downstream
// integration would: synthetic population → register → weblog ingest → EIT
// touches → propensity training on an observed wave → selection → message
// assignment — asserting that the selected cohort out-responds the
// population and that messaging differentiates users.
func TestEndToEndMiniDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in -short mode")
	}
	const users = 600
	clk := clock.NewSimulated(clock.Epoch)
	pop, err := synth.Generate(synth.DefaultConfig(users, 31))
	if err != nil {
		t.Fatal(err)
	}
	spa, err := New(Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer spa.Close()

	// Register everyone with their socio-demographics.
	for i := range pop.Users {
		u := &pop.Users[i]
		if err := spa.Register(u.ID, u.Objective); err != nil {
			t.Fatal(err)
		}
	}

	// Ingest four weeks of organic browsing through the facade.
	var batch []lifelog.Event
	if err := pop.GenerateWebLogs(synth.WebLogConfig{
		Start: clk.Now().Add(-28 * 24 * time.Hour), Weeks: 4, Seed: 5, TransactionBias: 0.35,
	}, func(e lifelog.Event) error {
		batch = append(batch, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	processed, skipped, err := spa.BatchIngest(batch)
	if err != nil {
		t.Fatal(err)
	}
	if processed == 0 || skipped != 0 {
		t.Fatalf("ingest processed %d skipped %d", processed, skipped)
	}

	// Gradual EIT: 40 touches per user, answered per latent state.
	r := rng.New(9)
	bank := emotion.NewBank()
	for touch := 0; touch < 40; touch++ {
		for i := range pop.Users {
			u := &pop.Users[i]
			item, err := spa.NextQuestion(u.ID)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := pop.AnswerEIT(u, item, bank, r)
			if err != nil {
				t.Fatal(err)
			}
			if opt < 0 {
				continue
			}
			if err := spa.SubmitAnswer(u.ID, emotion.Answer{ItemID: item.ID, Option: opt}); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(24 * time.Hour)
	}

	// Historical wave: message everyone, observe ground-truth responses,
	// train the propensity model on the observed outcomes.
	product := messaging.Product{
		Name: "Course in Digital Marketing",
		SalesAttributes: []emotion.Attribute{
			emotion.Enthusiastic, emotion.Motivated, emotion.Lively, emotion.Stimulated,
		},
	}
	var feats [][]float64
	var labels []bool
	responded := make(map[uint64]bool, users)
	for i := range pop.Users {
		u := &pop.Users[i]
		fv, err := spa.FeatureVector(u.ID)
		if err != nil {
			t.Fatal(err)
		}
		asg, err := spa.AssignMessage(u.ID, product)
		if err != nil {
			t.Fatal(err)
		}
		prob := pop.RespondProbability(u, asg.Message.Attribute, asg.Case == messaging.CaseStandard)
		resp := r.Bool(prob)
		responded[u.ID] = resp
		feats = append(feats, fv)
		labels = append(labels, resp)
		// Close the loop.
		if asg.Case != messaging.CaseStandard {
			attrs := []emotion.Attribute{asg.Message.Attribute}
			if resp {
				spa.Reward(u.ID, attrs)
			} else {
				spa.Punish(u.ID, attrs)
			}
		}
	}
	if err := spa.TrainPropensity(feats, labels); err != nil {
		t.Fatal(err)
	}

	// Selection function: the top 25% must out-respond the base rate on a
	// fresh response draw.
	top, err := spa.SelectTop(users / 4)
	if err != nil {
		t.Fatal(err)
	}
	inTop := map[uint64]bool{}
	for _, id := range top {
		inTop[id] = true
	}
	var topResp, allResp int
	for i := range pop.Users {
		u := &pop.Users[i]
		asg, _ := spa.AssignMessage(u.ID, product)
		prob := pop.RespondProbability(u, asg.Message.Attribute, asg.Case == messaging.CaseStandard)
		resp := r.Bool(prob)
		if resp {
			allResp++
			if inTop[u.ID] {
				topResp++
			}
		}
	}
	topRate := float64(topResp) / float64(len(top))
	allRate := float64(allResp) / float64(users)
	if topRate <= allRate*1.3 {
		t.Fatalf("selection did not concentrate responders: top %.3f vs all %.3f", topRate, allRate)
	}

	// Messaging differentiation: after EIT + reinforcement, a meaningful
	// share of users get non-standard messages.
	nonStandard := 0
	for i := range pop.Users {
		asg, err := spa.AssignMessage(pop.Users[i].ID, product)
		if err != nil {
			t.Fatal(err)
		}
		if asg.Case != messaging.CaseStandard {
			nonStandard++
		}
	}
	if nonStandard < users/30 {
		t.Fatalf("only %d/%d users got emotional messages", nonStandard, users)
	}
}

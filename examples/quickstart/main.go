// Quickstart: the minimal end-to-end SPA loop — register a user, feed
// browsing events, run a few Gradual EIT questions, get an individualized
// message and an advice vector.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/emotion"
	"repro/internal/lifelog"
	"repro/internal/messaging"
)

func main() {
	clk := clock.NewSimulated(clock.Epoch)
	spa, err := core.New(core.Options{Clock: clk})
	if err != nil {
		log.Fatal(err)
	}
	defer spa.Close()

	// 1. Register a user with socio-demographic (objective) attributes:
	//    age, gender, education, employment, income band, city size,
	//    prior courses, tenure months.
	const userID = 1001
	if err := spa.Register(userID, []float64{29, 1, 4, 1, 3, 2, 2, 6}); err != nil {
		log.Fatal(err)
	}

	// 2. Ingest a browsing session (the LifeLogs Pre-processor path).
	t := clock.Epoch.Add(-2 * time.Hour)
	events := []lifelog.Event{
		{UserID: userID, Time: t, Type: lifelog.EventPageView, Action: 12, Value: 40},
		{UserID: userID, Time: t.Add(2 * time.Minute), Type: lifelog.EventClick, Action: 45},
		{UserID: userID, Time: t.Add(5 * time.Minute), Type: lifelog.EventSearch, Action: 3},
		{UserID: userID, Time: t.Add(9 * time.Minute), Type: lifelog.EventInfoRequest, Action: 45},
	}
	processed, _, err := spa.BatchIngest(events)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d events\n", processed)

	// 3. Gradual EIT: one question per touch; here the user consistently
	//    picks the energetic first option.
	for i := 0; i < 8; i++ {
		item, err := spa.NextQuestion(userID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Q%d [%s]: %s\n", i+1, item.Branch, item.Prompt)
		fmt.Printf("   -> answer: %s\n", item.Options[0].Text)
		if err := spa.SubmitAnswer(userID, emotion.Answer{ItemID: item.ID, Option: 0}); err != nil {
			log.Fatal(err)
		}
		clk.Advance(24 * time.Hour)
	}

	// 4. Inspect the learned emotional state.
	dom, err := spa.DominantAttributes(userID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dominant attributes:")
	for _, d := range dom {
		fmt.Printf("   %-14s weight %.2f\n", emotion.Attribute(d.AttrID), d.Weight)
	}

	// 5. Messaging Agent: individualized sales argument for a course.
	product := messaging.Product{
		Name: "Course in Digital Marketing",
		SalesAttributes: []emotion.Attribute{
			emotion.Enthusiastic, emotion.Motivated, emotion.Lively, emotion.Stimulated,
		},
	}
	asg, err := spa.AssignMessage(userID, product)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("message (case %s): %s\n", asg.Case, asg.Rendered)

	// 6. Advice vector for the training domain.
	adv, err := spa.Advise(userID, "training")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("advice (activation > 0, inhibition < 0):")
	for a, v := range adv.Excitation {
		if v != 0 {
			fmt.Printf("   %-14s %+.2f\n", emotion.Attribute(a), v)
		}
	}
}

package repro

// One benchmark per evaluation artifact of the paper (DESIGN.md §4). The
// Fig. 6 benches run the full pipeline at a reduced scale and report the
// headline metrics via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates every table and figure in one pass:
//
//	BenchmarkTable1FourBranch      — Table 1
//	BenchmarkFig5MessageAssignment — Figure 5
//	BenchmarkFig6aRedemptionCurve  — Figure 6(a)
//	BenchmarkFig6bPredictiveScores — Figure 6(b)
//	BenchmarkAblationFeatureSets   — A1
//	BenchmarkAblationLearners      — A2
//	BenchmarkAblationRewardPunish  — A3

import (
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/emotion"
	"repro/internal/messaging"
	"repro/internal/ranking"
	"repro/internal/scalebench"
	"repro/internal/store"
)

// benchUsers keeps the full-pipeline benches laptop-fast; cmd/spabench runs
// the same experiments at arbitrary scale.
const benchUsers = 2000

// BenchmarkTable1FourBranch regenerates Table 1 (the Four-Branch Model) and
// reports its dimensions.
func BenchmarkTable1FourBranch(b *testing.B) {
	var rows []emotion.Table1Row
	for i := 0; i < b.N; i++ {
		rows = emotion.Table1()
	}
	attrs := 0
	for _, r := range rows {
		attrs += len(r.Attributes)
	}
	b.ReportMetric(float64(len(rows)), "branches")
	b.ReportMetric(float64(attrs), "attributes")
}

// BenchmarkFig5MessageAssignment regenerates the three Figure 5 samples and
// verifies the paper's cases fire.
func BenchmarkFig5MessageAssignment(b *testing.B) {
	db := messaging.NewDB()
	var samples []messaging.Fig5Sample
	var err error
	for i := 0; i < b.N; i++ {
		samples, err = messaging.Fig5(db, "Course in Digital Marketing")
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(samples) != 3 ||
		samples[0].Case != messaging.CaseSingle ||
		samples[1].Case != messaging.CaseMultiPriority ||
		samples[2].Case != messaging.CaseMultiSensibility {
		b.Fatalf("Fig. 5 cases wrong: %+v", samples)
	}
	b.ReportMetric(3, "cases")
}

func runFig6(b *testing.B, cfg campaign.ExperimentConfig) *campaign.Fig6 {
	b.Helper()
	var fig *campaign.Fig6
	for i := 0; i < b.N; i++ {
		var err error
		fig, _, err = campaign.RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

// BenchmarkFig6aRedemptionCurve runs the end-to-end pipeline and reports the
// cumulative-redemption operating point of Figure 6(a): the paper claims
// >76 % of useful impacts at 40 % of commercial action.
func BenchmarkFig6aRedemptionCurve(b *testing.B) {
	fig := runFig6(b, campaign.DefaultExperiment(benchUsers, 7))
	b.ReportMetric(fig.CapturedAt40*100, "captured@40%")
	b.ReportMetric(fig.AUC*1000, "AUCx1000")
	var at20, at60 float64
	for _, p := range fig.Gains {
		if p.ContactedFrac > 0.19 && p.ContactedFrac < 0.21 {
			at20 = p.CapturedFrac
		}
		if p.ContactedFrac > 0.59 && p.ContactedFrac < 0.61 {
			at60 = p.CapturedFrac
		}
	}
	b.ReportMetric(at20*100, "captured@20%")
	b.ReportMetric(at60*100, "captured@60%")
}

// BenchmarkFig6bPredictiveScores reports Figure 6(b): the average
// per-campaign predictive score (paper: 21 %) and the redemption improvement
// over the untargeted process (paper: +90 %).
func BenchmarkFig6bPredictiveScores(b *testing.B) {
	fig := runFig6(b, campaign.DefaultExperiment(benchUsers, 7))
	b.ReportMetric(fig.AvgPredictiveScore*100, "avgScore%")
	b.ReportMetric(fig.RedemptionImprovement*100, "improvement%")
	b.ReportMetric(float64(fig.TotalUsefulImpacts), "impacts")
}

// BenchmarkAblationFeatureSets is A1: objective-only vs +subjective vs the
// full SPA feature set, identical learner and seeds.
func BenchmarkAblationFeatureSets(b *testing.B) {
	for _, fs := range []campaign.FeatureSet{
		campaign.ObjectiveOnly(),
		{Objective: true, Subjective: true},
		campaign.FullFeatures(),
	} {
		b.Run(fs.String(), func(b *testing.B) {
			cfg := campaign.DefaultExperiment(benchUsers, 7)
			cfg.Features = fs
			fig := runFig6(b, cfg)
			b.ReportMetric(fig.CapturedAt40*100, "captured@40%")
			b.ReportMetric(fig.AvgPredictiveScore*100, "avgScore%")
		})
	}
}

// BenchmarkAblationLearners is A2: the SVM against the 2006-era baselines on
// identical features and populations.
func BenchmarkAblationLearners(b *testing.B) {
	for _, l := range []campaign.Learner{
		campaign.LearnerSVM, campaign.LearnerSVMDual, campaign.LearnerLogistic,
		campaign.LearnerRandom, campaign.LearnerPopularity,
	} {
		b.Run(l.String(), func(b *testing.B) {
			cfg := campaign.DefaultExperiment(benchUsers, 7)
			cfg.Learner = l
			fig := runFig6(b, cfg)
			b.ReportMetric(fig.CapturedAt40*100, "captured@40%")
			b.ReportMetric(fig.AvgPredictiveScore*100, "avgScore%")
		})
	}
}

// BenchmarkAblationRewardPunish is A3: the Fig. 4 closed loop on vs frozen
// profiles during the evaluation waves.
func BenchmarkAblationRewardPunish(b *testing.B) {
	for _, update := range []bool{true, false} {
		name := "update-on"
		if !update {
			name = "update-off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := campaign.DefaultExperiment(benchUsers, 7)
			cfg.UpdateSUM = update
			fig := runFig6(b, cfg)
			b.ReportMetric(fig.CapturedAt40*100, "captured@40%")
			b.ReportMetric(fig.AvgPredictiveScore*100, "avgScore%")
		})
	}
}

// BenchmarkShardedIngest measures the ingest facade end to end: eight
// goroutines pushing 64-user event bursts through a durable, fsync-on SPA
// core with 16 hash partitions (the workload lives in internal/scalebench).
// Each burst is prepared shard-parallel and committed as one wave: one
// WriteBatch per touched shard, one WAL sync for the burst.
func BenchmarkShardedIngest(b *testing.B) {
	bursts := scalebench.MakeBursts()
	b.Run("sharded-batched", func(b *testing.B) {
		spa, err := core.New(core.Options{
			DataDir: b.TempDir(),
			Store:   store.Options{SyncWrites: true},
			Shards:  16,
			Clock:   clock.NewSimulated(clock.Epoch),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer spa.Close()
		for u := 0; u < scalebench.Users; u++ {
			if err := spa.Register(uint64(u+1), nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		err = scalebench.RunWorkers(int64(b.N), func(i int64) error {
			_, _, err := spa.BatchIngest(bursts[i%int64(len(bursts))])
			return err
		})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(scalebench.EventsPerBurst), "events/op")
	})
}

// BenchmarkStoreBatchPut measures the persistence half in isolation: 128
// profile-sized records per op, written as individual Puts (128 WAL
// records) versus one WriteBatch (one WAL record). The sync variants show
// the group-commit effect — 128 fsyncs vs 1 — which is where batching pays
// for its extra copy; async shows the raw framing cost.
func BenchmarkStoreBatchPut(b *testing.B) {
	const recs = 128
	value := make([]byte, 256)
	key := func(i int64) []byte { return []byte(fmt.Sprintf("sum/%016x", i)) }

	for _, sync := range []bool{false, true} {
		mode := "async"
		if sync {
			mode = "fsync"
		}
		b.Run(mode+"/single-puts", func(b *testing.B) {
			db, err := store.Open(b.TempDir(), store.Options{SyncWrites: sync})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := int64(0); j < recs; j++ {
					if err := db.Put(key(int64(i)*recs+j), value); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(mode+"/write-batch", func(b *testing.B) {
			db, err := store.Open(b.TempDir(), store.Options{SyncWrites: sync})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			var batch store.WriteBatch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch.Reset()
				for j := int64(0); j < recs; j++ {
					batch.Put(key(int64(i)*recs+j), value)
				}
				if err := db.Apply(&batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGainsCurveOnly isolates the Fig. 6(a) metric computation from the
// pipeline (useful when profiling the evaluation path).
func BenchmarkGainsCurveOnly(b *testing.B) {
	cfg := campaign.DefaultExperiment(benchUsers, 7)
	fig, _, err := campaign.RunExperiment(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var pooled []ranking.Scored
	for _, r := range fig.PerCampaign {
		pooled = append(pooled, r.Scored...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ranking.GainsCurve(pooled, nil); err != nil {
			b.Fatal(err)
		}
	}
}

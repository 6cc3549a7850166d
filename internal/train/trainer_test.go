package train

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
)

// trainTinyModel trains the given model type briefly on the tiny synthetic
// dataset and returns the test MRR alongside the random-guessing baseline.
func trainTinyModel(t *testing.T, modelName string) (mrr, baseline float64) {
	t.Helper()
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatalf("generate tiny dataset: %v", err)
	}
	m, err := kge.New(modelName, kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          16,
		Seed:         1,
	})
	if err != nil {
		t.Fatalf("new %s: %v", modelName, err)
	}
	_, err = Run(context.Background(), m, ds, Config{
		Epochs:     30,
		BatchSize:  64,
		NegSamples: 4,
		Seed:       42,
	})
	if err != nil {
		t.Fatalf("train %s: %v", modelName, err)
	}
	ranker := eval.NewRanker(m, ds.All())
	res := eval.Evaluate(ranker, ds.Test, eval.Options{})
	// Random guessing over N entities has expected MRR ≈ ln(N)/N.
	n := float64(ds.Train.Entities.Len())
	return res.MRR, harmonicMean(n)
}

func harmonicMean(n float64) float64 {
	var h float64
	for i := 1.0; i <= n; i++ {
		h += 1 / i
	}
	return h / n
}

func TestTrainingBeatsRandomBaseline(t *testing.T) {
	for _, model := range []string{"transe", "distmult", "complex", "rescal", "hole", "conve"} {
		model := model
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			mrr, baseline := trainTinyModel(t, model)
			t.Logf("%s: test MRR %.4f (random baseline %.4f)", model, mrr, baseline)
			if mrr < 2*baseline {
				t.Errorf("%s: MRR %.4f did not beat 2x random baseline %.4f", model, mrr, baseline)
			}
		})
	}
}

func TestTrainingLossDecreases(t *testing.T) {
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          16,
		Seed:         1,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	hist, err := Run(context.Background(), m, ds, Config{Epochs: 20, BatchSize: 64, Seed: 9})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	first := hist.Epochs[0].Loss
	last := hist.Epochs[len(hist.Epochs)-1].Loss
	if last >= first {
		t.Errorf("loss did not decrease: first %.5f, last %.5f", first, last)
	}
}

func TestTrainingEarlyStopping(t *testing.T) {
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          8,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	hist, err := Run(context.Background(), m, ds, Config{
		Epochs:    100,
		BatchSize: 64,
		Seed:      3,
		EvalEvery: 1,
		Patience:  2,
		// A metric that never improves forces stopping after Patience evals.
		Validate: func(kge.Model) float64 { calls++; return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hist.Stopped {
		t.Error("early stopping did not trigger")
	}
	if len(hist.Epochs) >= 100 {
		t.Errorf("trained all %d epochs despite a flat metric", len(hist.Epochs))
	}
	if calls < 2 {
		t.Errorf("Validate called %d times, want >= 2", calls)
	}
}

func TestTrainingRestoresBestParams(t *testing.T) {
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          8,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Metric peaks at the 2nd evaluation then collapses: the returned model
	// must carry the epoch-2 parameters, which we fingerprint via a score.
	var peakScore float32
	calls := 0
	probe := ds.Train.Triples()[0]
	_, err = Run(context.Background(), m, ds, Config{
		Epochs:    6,
		BatchSize: 64,
		Seed:      3,
		EvalEvery: 1,
		Validate: func(model kge.Model) float64 {
			calls++
			if calls == 2 {
				peakScore = model.Score(probe)
				return 1.0
			}
			return 0.1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Score(probe) != peakScore {
		t.Errorf("best parameters not restored: score %g, want %g", m.Score(probe), peakScore)
	}
}

func TestTrainingEmptyGraphErrors(t *testing.T) {
	ds := &kg.Dataset{Name: "empty", Train: kg.NewGraph(), Valid: kg.NewGraph(), Test: kg.NewGraph()}
	m, err := kge.New("distmult", kge.Config{NumEntities: 2, NumRelations: 1, Dim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), m, ds, Config{Epochs: 1}); err == nil {
		t.Fatal("expected error for empty training graph")
	}
}

func TestTrainingContextCancelled(t *testing.T) {
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          8,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, m, ds, Config{Epochs: 5}); err == nil {
		t.Fatal("expected context error")
	}
}

func TestTrainingDeterministicSingleWorker(t *testing.T) {
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	score := func() float32 {
		m, err := kge.New("distmult", kge.Config{
			NumEntities:  ds.Train.Entities.Len(),
			NumRelations: ds.Train.Relations.Len(),
			Dim:          8,
			Seed:         1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), m, ds, Config{
			Epochs: 3, BatchSize: 64, Seed: 21, Workers: 1,
		}); err != nil {
			t.Fatal(err)
		}
		return m.Score(ds.Train.Triples()[0])
	}
	if a, b := score(), score(); a != b {
		t.Errorf("single-worker training not deterministic: %g vs %g", a, b)
	}
}

// TestProgressPrintsOnlyMeasuredValidation checks that the progress line
// carries a validation column exactly on the epochs Validate ran, under
// both objectives; an epoch without validation must not print a 0.
func TestProgressPrintsOnlyMeasuredValidation(t *testing.T) {
	ds := tinyDataset(t)
	objectives := map[string]func(kge.Trainable, Config) error{
		"negsample": func(m kge.Trainable, cfg Config) error {
			_, err := Run(context.Background(), m, ds, cfg)
			return err
		},
		"kvsall": func(m kge.Trainable, cfg Config) error {
			_, err := RunKvsAll(context.Background(), m, ds, cfg, 0)
			return err
		},
	}
	for name, run := range objectives {
		for _, validate := range []bool{false, true} {
			var lines []string
			cfg := Config{
				Epochs: 4, BatchSize: 64, NegSamples: 2, Seed: 3, EvalEvery: 2,
				Progress: func(format string, args ...any) {
					lines = append(lines, fmt.Sprintf(format, args...))
				},
			}
			if validate {
				cfg.Validate = func(kge.Model) float64 { return 0.25 }
			}
			if err := run(determinismModel(t, "distmult", ds), cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(lines) != cfg.Epochs {
				t.Fatalf("%s validate=%v: %d progress lines, want %d", name, validate, len(lines), cfg.Epochs)
			}
			for i, line := range lines {
				measured := validate && (i+1)%cfg.EvalEvery == 0
				if got := strings.Contains(line, "valid 0.2500"); got != measured {
					t.Errorf("%s validate=%v epoch %d: %q (validation column %v, want %v)",
						name, validate, i+1, line, got, measured)
				}
				if !measured && strings.Contains(line, "valid") {
					t.Errorf("%s validate=%v epoch %d: unmeasured validation printed: %q", name, validate, i+1, line)
				}
			}
		}
	}
}

// TestProgressPrintsStoppingEpoch checks that the epoch whose validation
// triggers early stopping gets its progress line like any other.
func TestProgressPrintsStoppingEpoch(t *testing.T) {
	ds := tinyDataset(t)
	var lines []string
	metric := 1.0
	hist, err := Run(context.Background(), determinismModel(t, "distmult", ds), ds, Config{
		Epochs: 10, BatchSize: 64, NegSamples: 2, Seed: 3, EvalEvery: 1, Patience: 1,
		Validate: func(kge.Model) float64 { metric /= 2; return metric },
		Progress: func(format string, args ...any) {
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hist.Stopped || len(hist.Epochs) != 2 {
		t.Fatalf("stopped %v after %d epochs, want early stop after 2", hist.Stopped, len(hist.Epochs))
	}
	if len(lines) != len(hist.Epochs) {
		t.Fatalf("%d progress lines for %d epochs: %q", len(lines), len(hist.Epochs), lines)
	}
	if !strings.Contains(lines[1], "valid 0.2500") {
		t.Errorf("stopping epoch line %q lacks its validation", lines[1])
	}
}

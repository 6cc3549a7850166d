// Package kge implements knowledge graph embedding models from scratch:
// TransE, DistMult, ComplEx, RESCAL, HolE and ConvE — the models the paper
// defines (§2.1) and evaluates (§4). Each model learns latent vectors for
// entities and relations and exposes a scoring function f(t; Θ) expressing
// its confidence that triple t holds.
//
// The package provides:
//
//   - Model: the read-only scoring interface consumed by evaluation and by
//     the fact discovery algorithm, including batched "score this (s, r)
//     against every object" sweeps that make ranking tractable on CPU;
//   - Trainable: the gradient interface consumed by the trainer — models
//     accumulate ∂score/∂θ into a sparse GradBuffer and an optimizer in
//     internal/train applies the update;
//   - persistence: gob-based checkpoints for every model type.
package kge

import (
	"fmt"
	"math/rand"

	"repro/internal/kg"
	"repro/internal/vecmath"
)

// Model is the read-only scoring interface. Scores are comparable within a
// model only: a higher score means the model considers the triple more
// plausible. Implementations must be safe for concurrent readers.
type Model interface {
	// Name returns the canonical lowercase model name ("transe", …).
	Name() string
	// Dim returns the embedding size l.
	Dim() int
	// NumEntities and NumRelations return the vocabulary sizes the model
	// was constructed with.
	NumEntities() int
	NumRelations() int
	// Score returns f(t; Θ).
	Score(t kg.Triple) float32
	// ScoreAllObjects writes f((s, r, o')) for every entity o' into out,
	// which must have length NumEntities, and returns it. This is the hot
	// path of ranking a candidate against its object-side corruptions.
	ScoreAllObjects(s kg.EntityID, r kg.RelationID, out []float32) []float32
	// ScoreAllSubjects writes f((s', r, o)) for every entity s' into out.
	ScoreAllSubjects(r kg.RelationID, o kg.EntityID, out []float32) []float32
}

// GradContext carries forward-pass intermediates from ScoreWithContext to
// AccumulateGrad so deep models (ConvE) need not recompute them. Models with
// cheap forward passes return nil.
type GradContext any

// Trainable is implemented by models that can be trained with the
// gradient-based trainer in internal/train.
type Trainable interface {
	Model
	// Params exposes the named parameter tables for the optimizer.
	Params() *ParamSet
	// ScoreWithContext is Score plus a reusable forward context.
	ScoreWithContext(t kg.Triple) (float32, GradContext)
	// AccumulateGrad accumulates upstream · ∂Score(t)/∂θ into gb. ctx must
	// come from a ScoreWithContext call for the same t (or be nil for
	// models that return nil contexts).
	AccumulateGrad(t kg.Triple, ctx GradContext, upstream float32, gb *GradBuffer)
	// PostBatch applies model-specific constraints after an optimizer step
	// (e.g. TransE re-normalizes entity embeddings to the unit ball).
	PostBatch()
}

// Param is one named parameter table. Row granularity is the unit of sparse
// gradient accumulation and optimizer updates: embedding tables are updated
// only in the rows a batch touched.
type Param struct {
	Name string
	M    *vecmath.Matrix

	index int
}

// Index returns p's position in its ParamSet's registration order. Gradient
// buffers and optimizer state are slices indexed by it, so the per-row hot
// paths never hash a parameter name.
func (p *Param) Index() int { return p.index }

// ParamSet is an ordered collection of parameter tables.
type ParamSet struct {
	list   []*Param
	byName map[string]*Param
}

// NewParamSet returns an empty parameter set.
func NewParamSet() *ParamSet {
	return &ParamSet{byName: make(map[string]*Param)}
}

// Add registers a parameter table under name and returns it. Registering a
// duplicate name panics: parameter naming is a compile-time property of each
// model.
func (ps *ParamSet) Add(name string, rows, cols int) *Param {
	if _, dup := ps.byName[name]; dup {
		panic(fmt.Sprintf("kge: duplicate parameter %q", name))
	}
	p := &Param{Name: name, M: vecmath.NewMatrix(rows, cols), index: len(ps.list)}
	ps.list = append(ps.list, p)
	ps.byName[name] = p
	return p
}

// Get returns the parameter named name, or nil.
func (ps *ParamSet) Get(name string) *Param { return ps.byName[name] }

// List returns the parameters in registration order. Callers must not
// modify the slice.
func (ps *ParamSet) List() []*Param { return ps.list }

// NumScalars returns the total number of trainable scalars.
func (ps *ParamSet) NumScalars() int {
	total := 0
	for _, p := range ps.list {
		total += len(p.M.Data)
	}
	return total
}

// Config carries the constructor arguments shared by all models plus
// model-specific knobs.
type Config struct {
	NumEntities  int
	NumRelations int
	// Dim is the embedding size l. ComplEx interprets Dim as the number of
	// complex components (storage 2·Dim); ConvE requires Dim == H·W.
	Dim  int
	Seed int64

	// Norm selects TransE's distance: 1 (L1) or 2 (squared L2). 0 means 1.
	Norm int

	// ConvE geometry: entity/relation embeddings are reshaped to
	// Height×Width (Dim = Height·Width), stacked to 2Height×Width, and run
	// through Filters 3×3 convolutions. Zero values pick defaults derived
	// from Dim.
	ConvEHeight  int
	ConvEWidth   int
	ConvEFilters int

	// skipInit skips the random parameter initialization in the
	// constructors, leaving every table zeroed. Only checkpoint loaders set
	// it (the loaded weights overwrite — or, for mmap-backed checkpoints,
	// replace — the tables anyway, so initializing them is pure wasted
	// work). Unexported on purpose: it is invisible to gob and callers
	// outside the package, so a snapshot's Config can never carry it.
	skipInit bool
}

func (c Config) validate() error {
	switch {
	case c.NumEntities < 1:
		return fmt.Errorf("kge: NumEntities must be >= 1, got %d", c.NumEntities)
	case c.NumRelations < 1:
		return fmt.Errorf("kge: NumRelations must be >= 1, got %d", c.NumRelations)
	case c.Dim < 1:
		return fmt.Errorf("kge: Dim must be >= 1, got %d", c.Dim)
	}
	return nil
}

// ModelNames lists the supported model names in the order the paper's
// conclusion enumerates its experiments (plus HolE from the preliminaries).
func ModelNames() []string {
	return []string{"transe", "distmult", "complex", "rescal", "conve", "hole"}
}

// New constructs a model by name.
func New(name string, cfg Config) (Trainable, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	switch name {
	case "transe":
		return NewTransE(cfg)
	case "distmult":
		return NewDistMult(cfg)
	case "complex":
		return NewComplEx(cfg)
	case "rescal":
		return NewRESCAL(cfg)
	case "hole":
		return NewHolE(cfg)
	case "conve":
		return NewConvE(cfg)
	default:
		return nil, fmt.Errorf("kge: unknown model %q (supported: %v)", name, ModelNames())
	}
}

// genericScoreAllObjects is the fallback batched sweep for models without a
// linear-algebra fast path.
func genericScoreAllObjects(m Model, s kg.EntityID, r kg.RelationID, out []float32) []float32 {
	for o := range out {
		out[o] = m.Score(kg.Triple{S: s, R: r, O: kg.EntityID(o)})
	}
	return out
}

// genericScoreAllSubjects mirrors genericScoreAllObjects for the subject side.
func genericScoreAllSubjects(m Model, r kg.RelationID, o kg.EntityID, out []float32) []float32 {
	for s := range out {
		out[s] = m.Score(kg.Triple{S: kg.EntityID(s), R: r, O: o})
	}
	return out
}

// initRNG builds the deterministic generator models initialize from.
func initRNG(cfg Config) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed))
}

func checkScoreBuf(out []float32, n int) {
	if len(out) != n {
		panic(fmt.Sprintf("kge: score buffer length %d, want %d entities", len(out), n))
	}
}

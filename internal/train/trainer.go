package train

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/prof"
	"repro/internal/vecmath"
)

// Config parameterizes a training run.
type Config struct {
	// Epochs is the maximum number of passes over the training triples.
	Epochs int
	// BatchSize is the number of positive triples per optimizer step.
	BatchSize int
	// NegSamples is the number of corruptions per positive.
	NegSamples int
	// Loss defaults to DefaultLossFor(model.Name()).
	Loss Loss
	// Optimizer defaults to Adam with LearningRate.
	Optimizer Optimizer
	// LearningRate is used when Optimizer is nil; zero means 0.05.
	LearningRate float32
	// L2 is the weight-decay coefficient applied (sparsely) to every
	// parameter row a batch touches.
	L2 float32
	// Workers is the gradient-computation parallelism; zero means
	// GOMAXPROCS. Training output is bit-identical for any value: the unit
	// of work is the fixed-size gradient chunk, not the worker shard, so
	// the float accumulation order never depends on Workers.
	Workers int
	// Seed drives shuffling and negative sampling.
	Seed int64
	// FilteredNegatives re-draws corruptions that are true training triples.
	FilteredNegatives bool
	// BernoulliNegatives fits per-relation corruption-side probabilities
	// (Wang et al., 2014) instead of the uniform 50/50 side choice.
	BernoulliNegatives bool
	// ScalarKernels forces the pre-batching scalar gradient path: exact
	// float64 transcendentals and one ScoreWithContext/AccumulateGrad call
	// per triple (or per entity for KvsAll). The zero value uses the batched
	// kernels — chunk-wide MatMat forwards, fused float32 loss kernels, and
	// grouped backward passes. Both paths are bit-deterministic for any
	// worker count, but they define different digests: flipping this toggle
	// changes checkpoints, flipping Workers never does. Scalar mode
	// reproduces the digests of the pre-batching trainer exactly, which is
	// what makes before/after benchmarks honest.
	ScalarKernels bool

	// Validate, when non-nil, is called every EvalEvery epochs with the
	// current model; it returns a metric where higher is better (e.g.
	// validation MRR). Training stops early when the metric has not
	// improved for Patience consecutive evaluations (Patience 0 disables
	// early stopping).
	Validate  func(m kge.Model) float64
	EvalEvery int
	Patience  int

	// Progress, when non-nil, receives one line per epoch.
	Progress func(format string, args ...any)
}

func (c *Config) setDefaults(model kge.Trainable) {
	if c.Epochs == 0 {
		c.Epochs = 50
	}
	if c.BatchSize == 0 {
		c.BatchSize = 128
	}
	if c.NegSamples == 0 {
		c.NegSamples = 4
	}
	if c.Loss == nil {
		c.Loss = DefaultLossFor(model.Name())
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.Optimizer == nil {
		c.Optimizer = NewAdam(c.LearningRate)
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 5
	}
}

// EpochStats records one epoch of training for the returned history.
type EpochStats struct {
	Epoch      int
	Loss       float64 // mean loss per positive triple
	Duration   time.Duration
	Validation float64 // metric from Config.Validate; NaN-free: 0 when unset
	// Examples is the number of training examples this epoch processed:
	// positive triples for the sampled objective, (s, r) contexts for
	// KvsAll. Examples/Duration is the epoch throughput.
	Examples int
}

// Throughput returns the epoch's examples per second (0 for a zero duration).
func (s EpochStats) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Examples) / s.Duration.Seconds()
}

// History is the per-epoch record of a training run.
type History struct {
	Epochs []EpochStats
	// Best is the best validation metric seen (0 when Validate is unset).
	Best float64
	// Stopped reports whether early stopping triggered.
	Stopped bool
}

// Run trains model on ds.Train per cfg. It returns the training history.
// The model is mutated in place; with early stopping the parameters from
// the best validation epoch are restored before returning.
func Run(ctx context.Context, model kge.Trainable, ds *kg.Dataset, cfg Config) (History, error) {
	cfg.setDefaults(model)
	if ds.Train.Len() == 0 {
		return History{}, fmt.Errorf("train: empty training graph")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	triples := make([]kg.Triple, ds.Train.Len())
	copy(triples, ds.Train.Triples())

	sampler := &NegativeSampler{
		NumEntities: model.NumEntities(),
		Filtered:    cfg.FilteredNegatives,
		Filter:      ds.Train,
	}
	if cfg.BernoulliNegatives {
		sampler.FitBernoulli(ds.Train)
	}

	bufs := newChunkBuffers(model.Params(), cfg.BatchSize)
	ws := make([]*negWorker, max(1, min(cfg.Workers, len(bufs))))
	return runEpochs(ctx, model, cfg, len(triples), "triples/s", func() float64 {
		rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })
		var loss float64
		for lo := 0; lo < len(triples); lo += cfg.BatchSize {
			hi := min(lo+cfg.BatchSize, len(triples))
			loss += runBatch(model, triples[lo:hi], sampler, cfg, rng.Int63(), bufs, ws)
		}
		return loss
	})
}

// runEpochs is the epoch loop both objectives share. epoch makes one pass
// over the n examples and returns their summed loss; runEpochs times it,
// validates every EvalEvery epochs, stops early, reports progress (unit
// names the throughput) and restores the best validated parameters.
func runEpochs(ctx context.Context, model kge.Trainable, cfg Config, n int, unit string, epoch func() float64) (History, error) {
	var hist History
	var best float64
	var bestParams map[string][]float32
	sinceBest := 0

	for e := 1; e <= cfg.Epochs; e++ {
		if err := ctx.Err(); err != nil {
			return hist, err
		}
		start := time.Now()
		loss := epoch() / float64(n)
		stats := EpochStats{Epoch: e, Loss: loss, Duration: time.Since(start), Examples: n}

		validated := cfg.Validate != nil && e%cfg.EvalEvery == 0
		if validated {
			metric := cfg.Validate(model)
			stats.Validation = metric
			if metric > best {
				best = metric
				sinceBest = 0
				bestParams = snapshotParams(model, bestParams)
			} else {
				sinceBest++
			}
			hist.Stopped = cfg.Patience > 0 && sinceBest >= cfg.Patience
		}
		hist.Epochs = append(hist.Epochs, stats)
		if cfg.Progress != nil {
			// The validation column appears only for epochs that measured it.
			valid := ""
			if validated {
				valid = fmt.Sprintf("  valid %.4f", stats.Validation)
			}
			cfg.Progress("epoch %3d  loss %.5f%s  (%s, %.0f %s)",
				e, stats.Loss, valid, stats.Duration.Round(time.Millisecond), stats.Throughput(), unit)
		}
		if hist.Stopped {
			break
		}
	}
	hist.Best = best
	if bestParams != nil {
		restoreParams(model, bestParams)
	}
	return hist, nil
}

// gradChunkSize is the fixed number of examples per gradient chunk. The
// chunk, not the worker shard, is the unit of scheduling: every batch is
// split into ⌈len/gradChunkSize⌉ chunks regardless of Config.Workers, each
// chunk accumulates into its own GradBuffer with an RNG stream derived from
// (batchSeed, chunkIndex), and the buffers merge in ascending chunk order
// after the barrier. Float accumulation order is therefore a function of
// the batch alone, which is what makes training bit-identical for any
// worker count.
const gradChunkSize = 16

// newChunkBuffers returns one GradBuffer per chunk slot of a full batch. A
// run allocates them once and every batch resets and refills the same
// buffers, so steady-state training allocates no gradient storage, and the
// memory a run holds for gradients is bounded by ⌈batchSize/gradChunkSize⌉
// buffers, each at most the rows its slot has ever touched.
func newChunkBuffers(ps *kge.ParamSet, batchSize int) []*kge.GradBuffer {
	bufs := make([]*kge.GradBuffer, (batchSize+gradChunkSize-1)/gradChunkSize)
	for i := range bufs {
		bufs[i] = kge.NewGradBuffer(ps)
	}
	return bufs
}

// splitmix64 is a tiny deterministic rand.Source64 used for per-chunk
// negative-sampling streams. Chunks are small and numerous, so stream setup
// must be O(1): seeding math/rand's default source walks a ~12k-multiply
// warmup, which would dominate a 16-example chunk's gradient work.
type splitmix64 uint64

func (s *splitmix64) Uint64() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix64) Seed(seed int64) { *s = splitmix64(seed) }

// runChunks splits n examples into fixed-size chunks and processes them on
// up to `workers` goroutines pulling chunk indices from a shared counter.
// Chunk c accumulates into bufs[c], reset first; do also receives its
// goroutine's index w < workers, so callers can keep per-goroutine scratch
// across batches. The buffers then merge into bufs[0] in ascending chunk
// order, which keeps the per-row addition sequence identical to a serial
// pass over the chunks. It returns the merged buffer and the summed loss.
// The phase string labels the workers' CPU-profile samples (prof.Do), so
// profiles split by hot path, e.g. "negsample/batched" vs "kvsall/scalar".
func runChunks(phase string, n, workers int, bufs []*kge.GradBuffer, do func(w, chunk, lo, hi int, gb *kge.GradBuffer) float64) (*kge.GradBuffer, float64) {
	chunks := (n + gradChunkSize - 1) / gradChunkSize
	workers = max(1, min(workers, chunks))
	losses := make([]float64, chunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prof.Do(phase, func() {
				for {
					c := int(next.Add(1)) - 1
					if c >= chunks {
						return
					}
					lo, hi := c*gradChunkSize, min((c+1)*gradChunkSize, n)
					bufs[c].Reset()
					losses[c] = do(w, c, lo, hi, bufs[c])
				}
			})
		}()
	}
	wg.Wait()
	var loss float64
	for c, l := range losses {
		loss += l
		if c > 0 {
			bufs[0].Merge(bufs[c])
		}
	}
	return bufs[0], loss
}

// step applies L2 regularization to the rows a batch touched and takes one
// optimizer step.
func step(model kge.Trainable, gb *kge.GradBuffer, cfg Config) {
	if cfg.L2 > 0 {
		gb.ForEach(func(p *kge.Param, row int, grad []float32) {
			vecmath.Axpy(cfg.L2, p.M.Row(row), grad)
		})
	}
	cfg.Optimizer.Step(gb)
	model.PostBatch()
}

// runBatch computes gradients for one batch (chunked across workers),
// applies L2 regularization on touched rows, and takes one optimizer step.
// It returns the summed loss over the batch. ws holds the run's
// per-goroutine scratch, created on first use.
//
// The batched path (ScalarKernels false, model implements GroupTrainable)
// gathers each positive's candidates into at most two groups — the (s, r)
// context against [positive object | object-side corruptions] and the (r, o)
// context against the subject-side corruptions — and scores/backprops each
// group with one GroupTrainable call. RNG consumption (CorruptN per positive
// in batch order) and the per-triple loss evaluation are identical to the
// scalar path, so the negative draws and reported losses match; only the
// float accumulation order inside a group differs.
func runBatch(model kge.Trainable, batch []kg.Triple, sampler *NegativeSampler, cfg Config, seed int64, bufs []*kge.GradBuffer, ws []*negWorker) float64 {
	invBatch := 1 / float32(len(batch))
	gt, grouped := model.(kge.GroupTrainable)
	grouped = grouped && !cfg.ScalarKernels
	phase := "negsample/scalar"
	if grouped {
		phase = "negsample/batched"
	}
	merged, loss := runChunks(phase, len(batch), len(ws), bufs, func(w, chunk, lo, hi int, gb *kge.GradBuffer) float64 {
		if ws[w] == nil {
			ws[w] = newNegWorker(cfg.NegSamples)
		}
		nw := ws[w]
		nw.reseed(seed, chunk)
		if grouped {
			return nw.groupedChunk(gt, batch[lo:hi], sampler, cfg, invBatch, gb)
		}
		return nw.scalarChunk(model, batch[lo:hi], sampler, cfg, invBatch, gb)
	})
	step(model, merged, cfg)
	return loss
}

// negWorker is one goroutine's negative-sampling scratch. A run keeps one
// per goroutine, so no chunk allocates.
type negWorker struct {
	negs      []kg.Triple
	negScores []float32
	gradNegs  []float32
	gradPos   float32           // a field, so passing &gradPos to Loss.Eval does not allocate
	negCtxs   []kge.GradContext // scalar path only
	// Group scratch: objs[0] is always the positive object; the slot arrays
	// map draw order i -> position in its side's group.
	objs, subjs           []kg.EntityID
	objSlot, subjSlot     []int
	objScores, subjScores []float32
	objUp, subjUp         []float32
	// One scratch per side: a group's ctx may alias its scratch, and both
	// groups' ctxs are alive between scoring and backprop.
	objScr, subjScr kge.GroupScratch
	src             splitmix64
	rng             *rand.Rand
}

func newNegWorker(negSamples int) *negWorker {
	w := &negWorker{
		negs:       make([]kg.Triple, 0, negSamples),
		negScores:  make([]float32, negSamples),
		gradNegs:   make([]float32, negSamples),
		negCtxs:    make([]kge.GradContext, negSamples),
		objs:       make([]kg.EntityID, 0, 1+negSamples),
		subjs:      make([]kg.EntityID, 0, negSamples),
		objSlot:    make([]int, negSamples),
		subjSlot:   make([]int, negSamples),
		objScores:  make([]float32, 1+negSamples),
		subjScores: make([]float32, negSamples),
		objUp:      make([]float32, 1+negSamples),
		subjUp:     make([]float32, negSamples),
	}
	w.rng = rand.New(&w.src)
	return w
}

// reseed points the worker's generator at one chunk's stream, a pure
// function of (batchSeed, chunkIndex) decorrelated from neighboring chunks
// by the splitmix64 golden-ratio increment. rand.Rand keeps no state of its
// own outside Read, so reusing it is the same as a fresh rand.New.
func (w *negWorker) reseed(batchSeed int64, chunk int) {
	w.src = splitmix64(uint64(batchSeed) + uint64(chunk+1)*0x9E3779B97F4A7C15)
}

// scalarChunk scores and backprops one chunk a triple at a time.
func (w *negWorker) scalarChunk(model kge.Trainable, chunk []kg.Triple, sampler *NegativeSampler, cfg Config, invBatch float32, gb *kge.GradBuffer) float64 {
	var loss float64
	for _, pos := range chunk {
		posScore, posCtx := model.ScoreWithContext(pos)
		w.negs = sampler.CorruptN(w.negs, pos, cfg.NegSamples, w.rng)
		for i, n := range w.negs {
			w.negScores[i], w.negCtxs[i] = model.ScoreWithContext(n)
		}
		k := len(w.negs)
		loss += float64(cfg.Loss.Eval(posScore, w.negScores[:k], &w.gradPos, w.gradNegs[:k]))
		if w.gradPos != 0 {
			model.AccumulateGrad(pos, posCtx, w.gradPos*invBatch, gb)
		}
		for i, n := range w.negs {
			if w.gradNegs[i] != 0 {
				model.AccumulateGrad(n, w.negCtxs[i], w.gradNegs[i]*invBatch, gb)
			}
		}
	}
	return loss
}

// groupedChunk scores and backprops one chunk through GroupTrainable sweeps.
func (w *negWorker) groupedChunk(gt kge.GroupTrainable, chunk []kg.Triple, sampler *NegativeSampler, cfg Config, invBatch float32, gb *kge.GradBuffer) float64 {
	var loss float64
	for _, pos := range chunk {
		w.negs = sampler.CorruptN(w.negs, pos, cfg.NegSamples, w.rng)
		negs := w.negs
		w.objs = append(w.objs[:0], pos.O)
		w.subjs = w.subjs[:0]
		for i, n := range negs {
			// Corrupt guarantees the corrupted entity differs from the
			// original, so n.O != pos.O iff the object side was corrupted —
			// unambiguous even for self-loops.
			if n.O != pos.O {
				w.objSlot[i] = len(w.objs)
				w.objs = append(w.objs, n.O)
			} else {
				w.objSlot[i] = -1
				w.subjSlot[i] = len(w.subjs)
				w.subjs = append(w.subjs, n.S)
			}
		}
		objs, subjs := w.objs, w.subjs
		objCtx := gt.ScoreObjectsGroup(pos.S, pos.R, objs, w.objScores[:len(objs)], &w.objScr)
		var subjCtx kge.GradContext
		if len(subjs) > 0 {
			subjCtx = gt.ScoreSubjectsGroup(pos.R, pos.O, subjs, w.subjScores[:len(subjs)], &w.subjScr)
		}
		for i := range negs {
			if s := w.objSlot[i]; s >= 0 {
				w.negScores[i] = w.objScores[s]
			} else {
				w.negScores[i] = w.subjScores[w.subjSlot[i]]
			}
		}
		loss += float64(cfg.Loss.Eval(w.objScores[0], w.negScores[:len(negs)], &w.gradPos, w.gradNegs[:len(negs)]))
		w.objUp[0] = w.gradPos * invBatch
		for i := range negs {
			if s := w.objSlot[i]; s >= 0 {
				w.objUp[s] = w.gradNegs[i] * invBatch
			} else {
				w.subjUp[w.subjSlot[i]] = w.gradNegs[i] * invBatch
			}
		}
		gt.AccumulateGradObjectsGroup(pos.S, pos.R, objs, objCtx, w.objUp[:len(objs)], gb, &w.objScr)
		if len(subjs) > 0 {
			gt.AccumulateGradSubjectsGroup(pos.R, pos.O, subjs, subjCtx, w.subjUp[:len(subjs)], gb, &w.subjScr)
		}
	}
	return loss
}

// snapshotParams copies the model's parameters, reusing prev's buffers when
// shapes match so repeated best-epoch snapshots stop re-allocating the full
// parameter set (which for a large model dwarfs the epoch's gradient churn).
func snapshotParams(model kge.Trainable, prev map[string][]float32) map[string][]float32 {
	snap := prev
	if snap == nil {
		snap = make(map[string][]float32)
	}
	for _, p := range model.Params().List() {
		data := snap[p.Name]
		if len(data) != len(p.M.Data) {
			data = make([]float32, len(p.M.Data))
		}
		copy(data, p.M.Data)
		snap[p.Name] = data
	}
	return snap
}

func restoreParams(model kge.Trainable, snap map[string][]float32) {
	for _, p := range model.Params().List() {
		if data, ok := snap[p.Name]; ok && len(data) == len(p.M.Data) {
			copy(p.M.Data, data)
		}
	}
}

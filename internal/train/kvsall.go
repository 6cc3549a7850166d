package train

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/vecmath"
)

// KvsAll ("1-N") training, LibKGE's KvsAll train type and the procedure of
// the original ConvE paper: instead of contrasting each positive against k
// sampled corruptions, every distinct (s, r) context in the training graph
// is scored against all entities at once and optimized with binary
// cross-entropy against the multi-hot vector of its true objects. One
// forward/backward pass per context covers N implicit negatives, which is
// what makes ConvE trainable in practice.

// kvsContext is one training example: a context and its true objects.
type kvsContext struct {
	s       kg.EntityID
	r       kg.RelationID
	objects []kg.EntityID
}

// buildKvsContexts groups the training triples by (s, r). The result is
// sorted by (s, r) — and each context's object list by object ID — so batch
// composition depends only on Config.Seed, never on the grouping map's
// iteration order.
func buildKvsContexts(g *kg.Graph) []kvsContext {
	type key struct {
		s kg.EntityID
		r kg.RelationID
	}
	grouped := make(map[key][]kg.EntityID)
	for _, t := range g.Triples() {
		k := key{t.S, t.R}
		grouped[k] = append(grouped[k], t.O)
	}
	out := make([]kvsContext, 0, len(grouped))
	for k, objs := range grouped {
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		out = append(out, kvsContext{s: k.s, r: k.r, objects: objs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].s != out[j].s {
			return out[i].s < out[j].s
		}
		return out[i].r < out[j].r
	})
	return out
}

// RunKvsAll trains model with the KvsAll objective. The model must
// implement kge.KvsAllTrainable (all six models here do). cfg fields
// NegSamples, Loss, FilteredNegatives and BernoulliNegatives are ignored —
// the objective replaces negative sampling entirely. LabelSmoothing (e.g.
// 0.1, the ConvE paper's value) smooths the multi-hot targets.
func RunKvsAll(ctx context.Context, model kge.Trainable, ds *kg.Dataset, cfg Config, labelSmoothing float32) (History, error) {
	kvs, ok := model.(kge.KvsAllTrainable)
	if !ok {
		return History{}, fmt.Errorf("train: model %s does not support KvsAll training", model.Name())
	}
	cfg.setDefaults(model)
	if ds.Train.Len() == 0 {
		return History{}, fmt.Errorf("train: empty training graph")
	}
	if labelSmoothing < 0 || labelSmoothing >= 1 {
		return History{}, fmt.Errorf("train: label smoothing %g outside [0, 1)", labelSmoothing)
	}

	contexts := buildKvsContexts(ds.Train)
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := model.NumEntities()

	bufs := newChunkBuffers(model.Params(), cfg.BatchSize)
	ws := make([]*kvsWorker, max(1, min(cfg.Workers, len(bufs))))
	return runEpochs(ctx, model, cfg, len(contexts), "contexts/s", func() float64 {
		rng.Shuffle(len(contexts), func(i, j int) { contexts[i], contexts[j] = contexts[j], contexts[i] })
		var loss float64
		for lo := 0; lo < len(contexts); lo += cfg.BatchSize {
			hi := min(lo+cfg.BatchSize, len(contexts))
			loss += runKvsBatch(kvs, contexts[lo:hi], n, cfg, labelSmoothing, bufs, ws)
		}
		return loss
	})
}

// kvsWorker is one goroutine's KvsAll scratch, kept for the whole run: the
// score and upstream tables are gradChunkSize×NumEntities (the scalar path
// uses row 0 of each).
type kvsWorker struct {
	scores, upstream *vecmath.Matrix
	ss               []kg.EntityID
	rs               []kg.RelationID
	positives        []int32
}

func newKvsWorker(n int) *kvsWorker {
	return &kvsWorker{
		scores:   vecmath.NewMatrix(gradChunkSize, n),
		upstream: vecmath.NewMatrix(gradChunkSize, n),
		ss:       make([]kg.EntityID, gradChunkSize),
		rs:       make([]kg.RelationID, gradChunkSize),
	}
}

// runKvsBatch processes one batch of contexts (chunked across workers, same
// deterministic reduction as runBatch) and applies a single optimizer step.
// Returns the summed mean-per-entity BCE loss over the batch.
//
// The batched path (ScalarKernels false, model implements
// KvsAllBatchTrainable) scores a whole chunk as one query-matrix × entity-
// table MatMat, runs the fused BCE loss/gradient kernel per context row, and
// backprops the chunk with one AccumulateGradAllObjectsBatch call.
func runKvsBatch(model kge.KvsAllTrainable, batch []kvsContext, n int, cfg Config, smoothing float32, bufs []*kge.GradBuffer, ws []*kvsWorker) float64 {
	invBatch := 1 / float32(len(batch))
	invN := 1 / float32(n)
	// Multi-hot targets with label smoothing.
	posLabel := (1-smoothing)*1 + smoothing*invN
	negLabel := smoothing * invN

	bt, batched := model.(kge.KvsAllBatchTrainable)
	batched = batched && !cfg.ScalarKernels
	scalar := func(w *kvsWorker, chunk []kvsContext, gb *kge.GradBuffer) float64 {
		scores, upstream := w.scores.Row(0), w.upstream.Row(0)
		var loss float64
		for _, c := range chunk {
			model.ScoreAllObjects(c.s, c.r, scores)
			var ctxLoss float64
			pi := 0
			for o := 0; o < n; o++ {
				y := negLabel
				// Two-pointer merge over the sorted object list replaces the
				// per-context positives map; the float ops and their order
				// are unchanged, so scalar digests are preserved.
				if pi < len(c.objects) && c.objects[pi] == kg.EntityID(o) {
					y = posLabel
					for pi < len(c.objects) && c.objects[pi] == kg.EntityID(o) {
						pi++
					}
				}
				p := vecmath.Sigmoid(scores[o])
				// BCE loss and its gradient w.r.t. the raw score.
				ctxLoss += bce(scores[o], y)
				upstream[o] = (p - y) * invBatch * invN
			}
			loss += ctxLoss * float64(invN)
			model.AccumulateGradAllObjects(c.s, c.r, upstream, gb)
		}
		return loss
	}
	gradScale := invBatch * invN
	fused := func(w *kvsWorker, chunk []kvsContext, gb *kge.GradBuffer) float64 {
		k := len(chunk)
		for j, c := range chunk {
			w.ss[j], w.rs[j] = c.s, c.r
		}
		scoresK := &vecmath.Matrix{Rows: k, Cols: n, Data: w.scores.Data[:k*n]}
		upstreamK := &vecmath.Matrix{Rows: k, Cols: n, Data: w.upstream.Data[:k*n]}
		bt.ScoreContextsBatch(w.ss[:k], w.rs[:k], scoresK)
		var loss float64
		for j, c := range chunk {
			w.positives = w.positives[:0]
			for _, o := range c.objects {
				w.positives = append(w.positives, int32(o))
			}
			ctxLoss := vecmath.BCEFusedGrad(upstreamK.Row(j), scoresK.Row(j),
				w.positives, posLabel, negLabel, gradScale)
			loss += ctxLoss * float64(invN)
		}
		bt.AccumulateGradAllObjectsBatch(w.ss[:k], w.rs[:k], upstreamK, gb)
		return loss
	}
	phase, do := "kvsall/scalar", scalar
	if batched {
		phase, do = "kvsall/batched", fused
	}
	merged, loss := runChunks(phase, len(batch), len(ws), bufs, func(w, _, lo, hi int, gb *kge.GradBuffer) float64 {
		if ws[w] == nil {
			ws[w] = newKvsWorker(n)
		}
		return do(ws[w], batch[lo:hi], gb)
	})
	step(model, merged, cfg)
	return loss
}

// bce is the numerically stable binary cross-entropy on a raw score:
// softplus(score) − y·score.
func bce(score, y float32) float64 {
	return float64(vecmath.Softplus(score) - y*score)
}

package train

import (
	"testing"

	"repro/internal/kge"
)

// TestGroupedChunkAllocatesNothing pins the negative-sampling hot path's
// steady state: once a worker's scratch and a recycled chunk buffer have
// seen a chunk, scoring, backprop and gradient accumulation for the next
// chunk allocate nothing. HolE's FFT kernels and ConvE's per-candidate
// forward contexts still allocate inside the model, so they are not pinned.
func TestGroupedChunkAllocatesNothing(t *testing.T) {
	pinned := map[string]bool{"transe": true, "distmult": true, "complex": true, "rescal": true}
	ds := tinyDataset(t)
	batch := ds.Train.Triples()[:gradChunkSize]
	for _, name := range kge.ModelNames() {
		m := determinismModel(t, name, ds)
		gt, ok := m.(kge.GroupTrainable)
		if !ok || !pinned[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{NegSamples: 4}
			cfg.setDefaults(m)
			sampler := &NegativeSampler{NumEntities: m.NumEntities()}
			w := newNegWorker(cfg.NegSamples)
			gb := kge.NewGradBuffer(m.Params())
			chunk := func() {
				gb.Reset()
				w.reseed(7, 0)
				w.groupedChunk(gt, batch, sampler, cfg, 1/float32(len(batch)), gb)
			}
			chunk()
			if n := testing.AllocsPerRun(20, chunk); n != 0 {
				t.Errorf("%v allocations per warmed-up chunk, want 0", n)
			}
		})
	}
}

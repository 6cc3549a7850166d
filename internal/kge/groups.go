package kge

import (
	"fmt"

	"repro/internal/fft"
	"repro/internal/kg"
	"repro/internal/vecmath"
)

// Grouped contrastive scoring: negative-sampling training evaluates, per
// positive triple, one (s, r) context against 1+K object candidates (the
// positive plus its object-side corruptions) and the same (r, o) context
// against the subject-side corruptions. Scoring them one ScoreWithContext
// call at a time recomputes the shared half of the score 1+K times —
// DistMult's s∘r, RESCAL's Wᵣᵀs, HolE's r*s convolution, and most
// expensively ConvE's whole conv+FC forward pass. GroupTrainable computes
// the shared query once per group and sweeps the candidate rows.
//
// The gradient identity is the same collapse: with uᵢ the per-candidate
// upstream, every per-triple chain into the shared side is linear in the
// candidate row, so the K subject/relation chains fold into one chain of
// w = Σᵢ uᵢ·eᵢ. Candidates with uᵢ = 0 are skipped and a group whose
// upstreams are all zero touches nothing — the optimizer's sparse row set
// is exactly the scalar path's.
//
// Grouped results are float32-reassociated relative to per-triple calls
// (tolerance-level equal, not bitwise); within one group the accumulation
// order is fixed (candidates ascending), so the batched trainer's digests
// remain worker-count-invariant.
type GroupTrainable interface {
	Trainable
	// ScoreObjectsGroup writes Score(s, r, objs[i]) into out[i] and returns
	// a context handle passed back to AccumulateGradObjectsGroup (nil for
	// models without forward state). The handle may alias scr's buffers.
	ScoreObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, out []float32, scr *GroupScratch) GradContext
	// AccumulateGradObjectsGroup is equivalent to per-candidate
	// AccumulateGrad((s, r, objs[i]), ctxᵢ, upstream[i], gb) in ascending i.
	AccumulateGradObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, ctx GradContext, upstream []float32, gb *GradBuffer, scr *GroupScratch)
	// ScoreSubjectsGroup writes Score(subjs[i], r, o) into out[i].
	ScoreSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, out []float32, scr *GroupScratch) GradContext
	// AccumulateGradSubjectsGroup is equivalent to per-candidate
	// AccumulateGrad((subjs[i], r, o), ctxᵢ, upstream[i], gb) in ascending i.
	AccumulateGradSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, ctx GradContext, upstream []float32, gb *GradBuffer, scr *GroupScratch)
}

// GroupScratch holds the reusable float buffers the GroupTrainable methods
// need (query vector, weighted sum, convolution temporaries), so the
// training hot loop stays allocation-free — the per-triple scalar path
// allocates nothing, and the grouped path must not regress that. A scratch
// is not safe for concurrent use, and because a group's GradContext may
// alias its scratch, one scratch must serve at most one group between its
// scoring and gradient calls (the trainer keeps one per side per worker).
// nil is valid and makes every Buf call allocate fresh.
type GroupScratch struct {
	bufs [3][]float32
	q    []float32 // the query vector a returned context points to
}

// queryCtx wraps a group's query vector as its GradContext: a pointer into
// the scratch, valid until the scratch's next group, so returning it
// allocates nothing (a slice stored in an interface would be boxed on every
// call). Without a scratch it returns nil, and the gradient call rebuilds
// the same q from the unchanged parameters.
func (s *GroupScratch) queryCtx(q []float32) GradContext {
	if s == nil {
		return nil
	}
	s.q = q
	return &s.q
}

// ctxQuery returns the query vector queryCtx wrapped, or nil.
func ctxQuery(ctx GradContext) []float32 {
	if p, ok := ctx.(*[]float32); ok {
		return *p
	}
	return nil
}

// Buf returns slot i as a zeroed length-n buffer, growing it on demand.
func (s *GroupScratch) Buf(i, n int) []float32 {
	if s == nil {
		return make([]float32, n)
	}
	if cap(s.bufs[i]) < n {
		s.bufs[i] = make([]float32, n)
		return s.bufs[i]
	}
	b := s.bufs[i][:n]
	clear(b)
	return b
}

func checkGroup(ids []kg.EntityID, buf []float32) {
	if len(ids) != len(buf) {
		panic(fmt.Sprintf("kge: group of %d candidates with buffer length %d", len(ids), len(buf)))
	}
}

// dotRows writes out[i] = q · ent[ids[i]].
func dotRows(out []float32, ent *Param, ids []kg.EntityID, q []float32) {
	for i, id := range ids {
		out[i] = vecmath.Dot(q, ent.M.Row(int(id)))
	}
}

// weightedRowSum accumulates w += Σ upstream[i]·ent[ids[i]], skipping zero
// upstreams, and reports whether any candidate contributed.
func weightedRowSum(w []float32, ent *Param, ids []kg.EntityID, upstream []float32) bool {
	any := false
	for i, u := range upstream {
		if u == 0 {
			continue
		}
		any = true
		vecmath.Axpy(u, ent.M.Row(int(ids[i])), w)
	}
	return any
}

// scatterRowGrad applies ∂L/∂e_{ids[i]} += upstream[i]·q for every candidate
// with nonzero upstream.
func scatterRowGrad(gb *GradBuffer, ids []kg.EntityID, upstream, q []float32) {
	for i, u := range upstream {
		if u == 0 {
			continue
		}
		gb.Axpy("entity", int(ids[i]), u, q)
	}
}

// --- DistMult ---

// ScoreObjectsGroup implements GroupTrainable: q = s∘r once, then one dot
// per candidate row. The returned context is q for the gradient call.
func (m *DistMult) ScoreObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, out []float32, scr *GroupScratch) GradContext {
	checkGroup(objs, out)
	q := vecmath.Hadamard(scr.Buf(0, m.cfg.Dim), m.ent.M.Row(int(s)), m.rel.M.Row(int(r)))
	dotRows(out, m.ent, objs, q)
	return scr.queryCtx(q)
}

// AccumulateGradObjectsGroup implements GroupTrainable: ∂oᵢ = uᵢ·(s∘r),
// and with w = Σ uᵢ·oᵢ the shared chains collapse to ∂s = w∘r, ∂r = w∘s.
func (m *DistMult) AccumulateGradObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, ctx GradContext, upstream []float32, gb *GradBuffer, scr *GroupScratch) {
	checkGroup(objs, upstream)
	sRow := m.ent.M.Row(int(s))
	rRow := m.rel.M.Row(int(r))
	w := scr.Buf(1, m.cfg.Dim)
	if !weightedRowSum(w, m.ent, objs, upstream) {
		return
	}
	q := ctxQuery(ctx)
	if q == nil {
		q = vecmath.Hadamard(scr.Buf(0, m.cfg.Dim), sRow, rRow)
	}
	scatterRowGrad(gb, objs, upstream, q)
	gs := gb.Row("entity", int(s))
	gr := gb.Row("relation", int(r))
	for i := range w {
		gs[i] += w[i] * rRow[i]
		gr[i] += w[i] * sRow[i]
	}
}

// ScoreSubjectsGroup implements GroupTrainable: by symmetry q = r∘o.
func (m *DistMult) ScoreSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, out []float32, scr *GroupScratch) GradContext {
	checkGroup(subjs, out)
	q := vecmath.Hadamard(scr.Buf(0, m.cfg.Dim), m.rel.M.Row(int(r)), m.ent.M.Row(int(o)))
	dotRows(out, m.ent, subjs, q)
	return scr.queryCtx(q)
}

// AccumulateGradSubjectsGroup implements GroupTrainable: ∂sᵢ = uᵢ·(r∘o) and
// with w = Σ uᵢ·sᵢ, ∂r = w∘o, ∂o = w∘r.
func (m *DistMult) AccumulateGradSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, ctx GradContext, upstream []float32, gb *GradBuffer, scr *GroupScratch) {
	checkGroup(subjs, upstream)
	rRow := m.rel.M.Row(int(r))
	oRow := m.ent.M.Row(int(o))
	w := scr.Buf(1, m.cfg.Dim)
	if !weightedRowSum(w, m.ent, subjs, upstream) {
		return
	}
	q := ctxQuery(ctx)
	if q == nil {
		q = vecmath.Hadamard(scr.Buf(0, m.cfg.Dim), rRow, oRow)
	}
	scatterRowGrad(gb, subjs, upstream, q)
	gr := gb.Row("relation", int(r))
	go_ := gb.Row("entity", int(o))
	for i := range w {
		gr[i] += w[i] * oRow[i]
		go_[i] += w[i] * rRow[i]
	}
}

// --- ComplEx ---

// objGroupQuery builds into q the coefficient of o in the score (the
// ScoreAllObjects query vector).
func (m *ComplEx) objGroupQuery(q []float32, s kg.EntityID, r kg.RelationID) []float32 {
	d := m.cfg.Dim
	sre, sim := m.split(m.ent.M.Row(int(s)))
	rre, rim := m.split(m.rel.M.Row(int(r)))
	for i := 0; i < d; i++ {
		q[i] = sre[i]*rre[i] - sim[i]*rim[i]
		q[d+i] = sim[i]*rre[i] + sre[i]*rim[i]
	}
	return q
}

// subjGroupQuery builds into q the coefficient of s in the score (the
// ScoreAllSubjects query vector).
func (m *ComplEx) subjGroupQuery(q []float32, r kg.RelationID, o kg.EntityID) []float32 {
	d := m.cfg.Dim
	rre, rim := m.split(m.rel.M.Row(int(r)))
	ore, oim := m.split(m.ent.M.Row(int(o)))
	for i := 0; i < d; i++ {
		q[i] = rre[i]*ore[i] + rim[i]*oim[i]
		q[d+i] = rre[i]*oim[i] - rim[i]*ore[i]
	}
	return q
}

// ScoreObjectsGroup implements GroupTrainable.
func (m *ComplEx) ScoreObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, out []float32, scr *GroupScratch) GradContext {
	checkGroup(objs, out)
	q := m.objGroupQuery(scr.Buf(0, 2*m.cfg.Dim), s, r)
	dotRows(out, m.ent, objs, q)
	return scr.queryCtx(q)
}

// AccumulateGradObjectsGroup implements GroupTrainable: ∂oᵢ = uᵢ·q and with
// w = Σ uᵢ·oᵢ the Hermitian chain gives
//
//	∂s_re = r_re∘w_re + r_im∘w_im   ∂s_im = r_re∘w_im − r_im∘w_re
//	∂r_re = s_re∘w_re + s_im∘w_im   ∂r_im = s_re∘w_im − s_im∘w_re
func (m *ComplEx) AccumulateGradObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, ctx GradContext, upstream []float32, gb *GradBuffer, scr *GroupScratch) {
	checkGroup(objs, upstream)
	d := m.cfg.Dim
	w := scr.Buf(1, 2*d)
	if !weightedRowSum(w, m.ent, objs, upstream) {
		return
	}
	q := ctxQuery(ctx)
	if q == nil {
		q = m.objGroupQuery(scr.Buf(0, 2*d), s, r)
	}
	scatterRowGrad(gb, objs, upstream, q)
	sre, sim := m.split(m.ent.M.Row(int(s)))
	rre, rim := m.split(m.rel.M.Row(int(r)))
	wre, wim := m.split(w)
	gs := gb.Row("entity", int(s))
	gr := gb.Row("relation", int(r))
	for i := 0; i < d; i++ {
		gs[i] += rre[i]*wre[i] + rim[i]*wim[i]
		gs[d+i] += rre[i]*wim[i] - rim[i]*wre[i]
		gr[i] += sre[i]*wre[i] + sim[i]*wim[i]
		gr[d+i] += sre[i]*wim[i] - sim[i]*wre[i]
	}
}

// ScoreSubjectsGroup implements GroupTrainable.
func (m *ComplEx) ScoreSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, out []float32, scr *GroupScratch) GradContext {
	checkGroup(subjs, out)
	q := m.subjGroupQuery(scr.Buf(0, 2*m.cfg.Dim), r, o)
	dotRows(out, m.ent, subjs, q)
	return scr.queryCtx(q)
}

// AccumulateGradSubjectsGroup implements GroupTrainable: ∂sᵢ = uᵢ·q and with
// w = Σ uᵢ·sᵢ,
//
//	∂r_re = w_re∘o_re + w_im∘o_im   ∂r_im = w_re∘o_im − w_im∘o_re
//	∂o_re = w_re∘r_re − w_im∘r_im   ∂o_im = w_im∘r_re + w_re∘r_im
func (m *ComplEx) AccumulateGradSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, ctx GradContext, upstream []float32, gb *GradBuffer, scr *GroupScratch) {
	checkGroup(subjs, upstream)
	d := m.cfg.Dim
	w := scr.Buf(1, 2*d)
	if !weightedRowSum(w, m.ent, subjs, upstream) {
		return
	}
	q := ctxQuery(ctx)
	if q == nil {
		q = m.subjGroupQuery(scr.Buf(0, 2*d), r, o)
	}
	scatterRowGrad(gb, subjs, upstream, q)
	rre, rim := m.split(m.rel.M.Row(int(r)))
	ore, oim := m.split(m.ent.M.Row(int(o)))
	wre, wim := m.split(w)
	gr := gb.Row("relation", int(r))
	go_ := gb.Row("entity", int(o))
	for i := 0; i < d; i++ {
		gr[i] += wre[i]*ore[i] + wim[i]*oim[i]
		gr[d+i] += wre[i]*oim[i] - wim[i]*ore[i]
		go_[i] += wre[i]*rre[i] - wim[i]*rim[i]
		go_[d+i] += wim[i]*rre[i] + wre[i]*rim[i]
	}
}

// --- RESCAL ---

// ScoreObjectsGroup implements GroupTrainable: q = Wᵣᵀs once.
func (m *RESCAL) ScoreObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, out []float32, scr *GroupScratch) GradContext {
	checkGroup(objs, out)
	q := m.wts(scr.Buf(0, m.cfg.Dim), r, m.ent.M.Row(int(s)))
	dotRows(out, m.ent, objs, q)
	return scr.queryCtx(q)
}

// AccumulateGradObjectsGroup implements GroupTrainable: ∂oᵢ = uᵢ·Wᵣᵀs and
// with w = Σ uᵢ·oᵢ, ∂s = Wᵣ·w and ∂Wᵣ = s·wᵀ.
func (m *RESCAL) AccumulateGradObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, ctx GradContext, upstream []float32, gb *GradBuffer, scr *GroupScratch) {
	checkGroup(objs, upstream)
	d := m.cfg.Dim
	sRow := m.ent.M.Row(int(s))
	w := scr.Buf(1, d)
	if !weightedRowSum(w, m.ent, objs, upstream) {
		return
	}
	q := ctxQuery(ctx)
	if q == nil {
		q = m.wts(scr.Buf(0, d), r, sRow)
	}
	scatterRowGrad(gb, objs, upstream, q)
	gb.Axpy("entity", int(s), 1, m.wo(scr.Buf(2, d), r, w))
	gw := gb.Row("relation", int(r))
	for i := 0; i < d; i++ {
		vecmath.Axpy(sRow[i], w, gw[i*d:(i+1)*d])
	}
}

// ScoreSubjectsGroup implements GroupTrainable: q = Wᵣ·o once.
func (m *RESCAL) ScoreSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, out []float32, scr *GroupScratch) GradContext {
	checkGroup(subjs, out)
	q := m.wo(scr.Buf(0, m.cfg.Dim), r, m.ent.M.Row(int(o)))
	dotRows(out, m.ent, subjs, q)
	return scr.queryCtx(q)
}

// AccumulateGradSubjectsGroup implements GroupTrainable: ∂sᵢ = uᵢ·Wᵣ·o and
// with w = Σ uᵢ·sᵢ, ∂o = Wᵣᵀ·w and ∂Wᵣ = w·oᵀ.
func (m *RESCAL) AccumulateGradSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, ctx GradContext, upstream []float32, gb *GradBuffer, scr *GroupScratch) {
	checkGroup(subjs, upstream)
	d := m.cfg.Dim
	oRow := m.ent.M.Row(int(o))
	w := scr.Buf(1, d)
	if !weightedRowSum(w, m.ent, subjs, upstream) {
		return
	}
	q := ctxQuery(ctx)
	if q == nil {
		q = m.wo(scr.Buf(0, d), r, oRow)
	}
	scatterRowGrad(gb, subjs, upstream, q)
	gb.Axpy("entity", int(o), 1, m.wts(scr.Buf(2, d), r, w))
	gw := gb.Row("relation", int(r))
	for i := 0; i < d; i++ {
		vecmath.Axpy(w[i], oRow, gw[i*d:(i+1)*d])
	}
}

// --- HolE ---

// ScoreObjectsGroup implements GroupTrainable: q = r * s (convolution) once.
func (m *HolE) ScoreObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, out []float32, scr *GroupScratch) GradContext {
	checkGroup(objs, out)
	q := fft.Convolve(scr.Buf(0, m.cfg.Dim), m.rel.M.Row(int(r)), m.ent.M.Row(int(s)))
	dotRows(out, m.ent, objs, q)
	return scr.queryCtx(q)
}

// AccumulateGradObjectsGroup implements GroupTrainable: ∂oᵢ = uᵢ·(r*s) and
// with w = Σ uᵢ·oᵢ, ∂s = r ⋆ w and ∂r = s ⋆ w (correlation is linear in o).
func (m *HolE) AccumulateGradObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, ctx GradContext, upstream []float32, gb *GradBuffer, scr *GroupScratch) {
	checkGroup(objs, upstream)
	d := m.cfg.Dim
	sRow := m.ent.M.Row(int(s))
	rRow := m.rel.M.Row(int(r))
	w := scr.Buf(1, d)
	if !weightedRowSum(w, m.ent, objs, upstream) {
		return
	}
	q := ctxQuery(ctx)
	if q == nil {
		q = fft.Convolve(scr.Buf(0, d), rRow, sRow)
	}
	scatterRowGrad(gb, objs, upstream, q)
	tmp := scr.Buf(2, d)
	gb.Axpy("entity", int(s), 1, fft.CircularCorrelation(tmp, rRow, w))
	gb.Axpy("relation", int(r), 1, fft.CircularCorrelation(tmp, sRow, w))
}

// ScoreSubjectsGroup implements GroupTrainable: q = r ⋆ o once.
func (m *HolE) ScoreSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, out []float32, scr *GroupScratch) GradContext {
	checkGroup(subjs, out)
	q := fft.CircularCorrelation(scr.Buf(0, m.cfg.Dim), m.rel.M.Row(int(r)), m.ent.M.Row(int(o)))
	dotRows(out, m.ent, subjs, q)
	return scr.queryCtx(q)
}

// AccumulateGradSubjectsGroup implements GroupTrainable: ∂sᵢ = uᵢ·(r ⋆ o)
// and with w = Σ uᵢ·sᵢ, ∂r = w ⋆ o and ∂o = r * w (both linear in s).
func (m *HolE) AccumulateGradSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, ctx GradContext, upstream []float32, gb *GradBuffer, scr *GroupScratch) {
	checkGroup(subjs, upstream)
	d := m.cfg.Dim
	rRow := m.rel.M.Row(int(r))
	oRow := m.ent.M.Row(int(o))
	w := scr.Buf(1, d)
	if !weightedRowSum(w, m.ent, subjs, upstream) {
		return
	}
	q := ctxQuery(ctx)
	if q == nil {
		q = fft.CircularCorrelation(scr.Buf(0, d), rRow, oRow)
	}
	scatterRowGrad(gb, subjs, upstream, q)
	tmp := scr.Buf(2, d)
	gb.Axpy("relation", int(r), 1, fft.CircularCorrelation(tmp, w, oRow))
	gb.Axpy("entity", int(o), 1, fft.Convolve(tmp, rRow, w))
}

// --- TransE ---

// ScoreObjectsGroup implements GroupTrainable: q = s + r once, one distance
// per candidate (the same kernels as ScoreAllObjects).
func (m *TransE) ScoreObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, out []float32, scr *GroupScratch) GradContext {
	checkGroup(objs, out)
	q := vecmath.Add(scr.Buf(0, m.cfg.Dim), m.ent.M.Row(int(s)), m.rel.M.Row(int(r)))
	for i, o := range objs {
		row := m.ent.M.Row(int(o))
		if m.norm == 1 {
			out[i] = -vecmath.L1Distance(q, row)
		} else {
			out[i] = -vecmath.SquaredL2Distance(q, row)
		}
	}
	return nil
}

// AccumulateGradObjectsGroup implements GroupTrainable. The distance
// gradient has a per-candidate sign/residual term, so each candidate is
// walked individually; only the shared ∂s = ∂r accumulation collapses. The
// residual e = s+r−o is evaluated with the scalar path's operation order,
// so the sign pattern (norm 1) is identical.
func (m *TransE) AccumulateGradObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, _ GradContext, upstream []float32, gb *GradBuffer, scr *GroupScratch) {
	checkGroup(objs, upstream)
	d := m.cfg.Dim
	sRow := m.ent.M.Row(int(s))
	rRow := m.rel.M.Row(int(r))
	dq := scr.Buf(1, d)
	any := false
	for i, u := range upstream {
		if u == 0 {
			continue
		}
		any = true
		oRow := m.ent.M.Row(int(objs[i]))
		go_ := gb.Row("entity", int(objs[i]))
		for c := 0; c < d; c++ {
			e := sRow[c] + rRow[c] - oRow[c]
			g := m.distGrad(e)
			dq[c] += -g * u
			go_[c] += g * u
		}
	}
	if !any {
		return
	}
	gb.Axpy("entity", int(s), 1, dq)
	gb.Axpy("relation", int(r), 1, dq)
}

// ScoreSubjectsGroup implements GroupTrainable: d(s+r, o) = d(s, o−r), so
// q = o − r once (the same reduction as ScoreAllSubjects).
func (m *TransE) ScoreSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, out []float32, scr *GroupScratch) GradContext {
	checkGroup(subjs, out)
	q := vecmath.Sub(scr.Buf(0, m.cfg.Dim), m.ent.M.Row(int(o)), m.rel.M.Row(int(r)))
	for i, s := range subjs {
		row := m.ent.M.Row(int(s))
		if m.norm == 1 {
			out[i] = -vecmath.L1Distance(row, q)
		} else {
			out[i] = -vecmath.SquaredL2Distance(row, q)
		}
	}
	return nil
}

// distGrad is ∂d/∂e for one residual coordinate.
func (m *TransE) distGrad(e float32) float32 {
	if m.norm == 1 {
		switch {
		case e > 0:
			return 1
		case e < 0:
			return -1
		}
		return 0
	}
	return 2 * e
}

// AccumulateGradSubjectsGroup implements GroupTrainable: per-candidate
// subject gradients, with the shared ∂r = −Σ and ∂o = +Σ collapsed.
func (m *TransE) AccumulateGradSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, _ GradContext, upstream []float32, gb *GradBuffer, scr *GroupScratch) {
	checkGroup(subjs, upstream)
	d := m.cfg.Dim
	rRow := m.rel.M.Row(int(r))
	oRow := m.ent.M.Row(int(o))
	dsum := scr.Buf(1, d)
	any := false
	for i, u := range upstream {
		if u == 0 {
			continue
		}
		any = true
		sRow := m.ent.M.Row(int(subjs[i]))
		gs := gb.Row("entity", int(subjs[i]))
		for c := 0; c < d; c++ {
			e := sRow[c] + rRow[c] - oRow[c]
			g := m.distGrad(e)
			gs[c] += -g * u
			dsum[c] += g * u
		}
	}
	if !any {
		return
	}
	gb.Axpy("relation", int(r), -1, dsum)
	gb.Axpy("entity", int(o), 1, dsum)
}

// --- ConvE ---

// ScoreObjectsGroup implements GroupTrainable — the big win for ConvE: one
// conv+FC forward for the whole group instead of one per candidate. The
// returned context carries the forward activations into the gradient call.
func (m *ConvE) ScoreObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, out []float32, _ *GroupScratch) GradContext {
	checkGroup(objs, out)
	c := m.forward(s, r)
	for i, o := range objs {
		out[i] = vecmath.Dot(c.hidden, m.ent.M.Row(int(o))) + m.entBias.M.Row(int(o))[0]
	}
	return c
}

// AccumulateGradObjectsGroup implements GroupTrainable: per-candidate output
// gradients, then a single FC/conv backward with dh = Σ uᵢ·oᵢ (backpropHidden
// is linear in dh for the fixed activation pattern of this forward pass).
func (m *ConvE) AccumulateGradObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, ctx GradContext, upstream []float32, gb *GradBuffer, scr *GroupScratch) {
	checkGroup(objs, upstream)
	c, ok := ctx.(*conveCtx)
	if !ok || c == nil {
		c = m.forward(s, r)
	}
	dh := scr.Buf(0, m.cfg.Dim)
	any := false
	for i, u := range upstream {
		if u == 0 {
			continue
		}
		any = true
		o := int(objs[i])
		gb.Axpy("entity", o, u, c.hidden)
		gb.Row("entbias", o)[0] += u
		vecmath.Axpy(u, m.ent.M.Row(o), dh)
	}
	if !any {
		return
	}
	m.backpropHidden(s, r, c, dh, gb)
}

// ScoreSubjectsGroup implements GroupTrainable. The convolution depends on
// the subject, so each candidate needs its own forward pass; the context
// carries all of them so the gradient call does not recompute.
func (m *ConvE) ScoreSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, out []float32, _ *GroupScratch) GradContext {
	checkGroup(subjs, out)
	oRow := m.ent.M.Row(int(o))
	bias := m.entBias.M.Row(int(o))[0]
	ctxs := make([]*conveCtx, len(subjs))
	for i, s := range subjs {
		ctxs[i] = m.forward(s, r)
		out[i] = vecmath.Dot(ctxs[i].hidden, oRow) + bias
	}
	return ctxs
}

// AccumulateGradSubjectsGroup implements GroupTrainable: one full backward
// per candidate (no shared structure to collapse), reusing the forward
// contexts from scoring.
func (m *ConvE) AccumulateGradSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, ctx GradContext, upstream []float32, gb *GradBuffer, scr *GroupScratch) {
	checkGroup(subjs, upstream)
	ctxs, _ := ctx.([]*conveCtx)
	oRow := m.ent.M.Row(int(o))
	dh := scr.Buf(0, m.cfg.Dim)
	for i, u := range upstream {
		if u == 0 {
			continue
		}
		var c *conveCtx
		if i < len(ctxs) {
			c = ctxs[i]
		}
		if c == nil {
			c = m.forward(subjs[i], r)
		}
		gb.Axpy("entity", int(o), u, c.hidden)
		gb.Row("entbias", int(o))[0] += u
		for j := range dh {
			dh[j] = u * oRow[j]
		}
		m.backpropHidden(subjs[i], r, c, dh, gb)
	}
}

package train

import (
	"fmt"
	"math"

	"repro/internal/kge"
	"repro/internal/vecmath"
)

// Optimizer applies one accumulated sparse gradient step to a model's
// parameters. Implementations keep per-parameter state keyed by row, so only
// the rows a batch touched pay any cost ("lazy" updates, the standard
// approach for embedding tables).
type Optimizer interface {
	Name() string
	Step(gb *kge.GradBuffer)
}

// NewSGD returns plain stochastic gradient descent with learning rate lr.
func NewSGD(lr float32) Optimizer { return &sgd{lr: lr} }

type sgd struct{ lr float32 }

func (s *sgd) Name() string { return "sgd" }

func (s *sgd) Step(gb *kge.GradBuffer) {
	gb.ForEach(func(p *kge.Param, row int, grad []float32) {
		vecmath.Axpy(-s.lr, grad, p.M.Row(row))
	})
}

// NewAdagrad returns Adagrad (Duchi et al., 2011) with learning rate lr.
func NewAdagrad(lr float32) Optimizer {
	return &adagrad{lr: lr, eps: 1e-8}
}

type adagrad struct {
	lr    float32
	eps   float32
	accum [][]float32 // by Param.Index: squared-gradient accumulator
}

func (a *adagrad) Name() string { return "adagrad" }

func (a *adagrad) Step(gb *kge.GradBuffer) {
	gb.ForEach(func(p *kge.Param, row int, grad []float32) {
		pi := p.Index()
		for len(a.accum) <= pi {
			a.accum = append(a.accum, nil)
		}
		acc := a.accum[pi]
		if acc == nil {
			acc = make([]float32, len(p.M.Data))
			a.accum[pi] = acc
		}
		w := p.M.Row(row)
		base := row * p.M.Cols
		for i, g := range grad {
			acc[base+i] += g * g
			w[i] -= a.lr * g / (float32(math.Sqrt(float64(acc[base+i]))) + a.eps)
		}
	})
}

// NewAdam returns Adam (Kingma & Ba, 2014) with the given learning rate and
// the standard β₁=0.9, β₂=0.999, ε=1e-8. This is the optimizer the paper
// uses for all models. Bias correction is tracked per row, which is the
// correct "lazy Adam" treatment for sparsely updated embedding tables.
func NewAdam(lr float32) Optimizer {
	return &adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
}

type adam struct {
	lr, beta1, beta2, eps float32

	state []*adamState // by Param.Index
	// c1[t-1] and c2[t-1] cache the bias corrections 1-β₁ᵗ and 1-β₂ᵗ.
	c1, c2 []float32
}

type adamState struct {
	m, v []float32 // first- and second-moment estimates
	t    []int32   // per-row step counts for bias correction
}

func (a *adam) Name() string { return "adam" }

// param returns p's state, creating it on first use.
func (a *adam) param(p *kge.Param) *adamState {
	i := p.Index()
	for len(a.state) <= i {
		a.state = append(a.state, nil)
	}
	st := a.state[i]
	if st == nil {
		st = &adamState{
			m: make([]float32, len(p.M.Data)),
			v: make([]float32, len(p.M.Data)),
			t: make([]int32, p.M.Rows),
		}
		a.state[i] = st
	}
	return st
}

// corrections returns the bias corrections for step count t. Each is
// computed once per t with the same expression a per-row computation would
// use, so the cached values are bit-identical to it.
func (a *adam) corrections(t int32) (c1, c2 float32) {
	for int(t) > len(a.c1) {
		n := float64(len(a.c1) + 1)
		a.c1 = append(a.c1, float32(1-math.Pow(float64(a.beta1), n)))
		a.c2 = append(a.c2, float32(1-math.Pow(float64(a.beta2), n)))
	}
	return a.c1[t-1], a.c2[t-1]
}

func (a *adam) Step(gb *kge.GradBuffer) {
	gb.ForEach(func(p *kge.Param, row int, grad []float32) {
		st := a.param(p)
		st.t[row]++
		c1, c2 := a.corrections(st.t[row])
		m, v := st.m, st.v

		w := p.M.Row(row)
		base := row * p.M.Cols
		for i, g := range grad {
			m[base+i] = a.beta1*m[base+i] + (1-a.beta1)*g
			v[base+i] = a.beta2*v[base+i] + (1-a.beta2)*g*g
			mh := m[base+i] / c1
			vh := v[base+i] / c2
			w[i] -= a.lr * mh / (float32(math.Sqrt(float64(vh))) + a.eps)
		}
	})
}

// OptimizerByName resolves an optimizer from its CLI name.
func OptimizerByName(name string, lr float32) (Optimizer, error) {
	switch name {
	case "adam":
		return NewAdam(lr), nil
	case "adagrad":
		return NewAdagrad(lr), nil
	case "sgd":
		return NewSGD(lr), nil
	default:
		return nil, fmt.Errorf("train: unknown optimizer %q (supported: adam, adagrad, sgd)", name)
	}
}

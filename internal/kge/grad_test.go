package kge

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vecmath"
)

// mapGradBuffer is the original map-keyed GradBuffer, kept as the oracle
// the slot/page implementation must match bit for bit: one heap slice per
// (param, row) in a map, dense tables in a second map. Reset forgets every
// entry, which is GradBuffer's contract (the buffer reads as new).
type mapGradBuffer struct {
	ps    *ParamSet
	grads map[rowKey][]float32
	dense map[string]*DenseGrad
}

type rowKey struct {
	param string
	row   int
}

func newMapGradBuffer(ps *ParamSet) *mapGradBuffer {
	return &mapGradBuffer{ps: ps, grads: make(map[rowKey][]float32), dense: make(map[string]*DenseGrad)}
}

func (gb *mapGradBuffer) Dense(param string) *DenseGrad {
	if d, ok := gb.dense[param]; ok {
		return d
	}
	p := gb.ps.Get(param)
	d := &DenseGrad{m: vecmath.NewMatrix(p.M.Rows, p.M.Cols), touched: make([]bool, p.M.Rows)}
	for k, g := range gb.grads {
		if k.param == param {
			copy(d.Row(k.row), g)
			delete(gb.grads, k)
		}
	}
	gb.dense[param] = d
	return d
}

func (gb *mapGradBuffer) Row(param string, row int) []float32 {
	if d, ok := gb.dense[param]; ok {
		return d.Row(row)
	}
	k := rowKey{param, row}
	if g, ok := gb.grads[k]; ok {
		return g
	}
	g := make([]float32, gb.ps.Get(param).M.Cols)
	gb.grads[k] = g
	return g
}

func (gb *mapGradBuffer) Axpy(param string, row int, alpha float32, x []float32) {
	vecmath.Axpy(alpha, x, gb.Row(param, row))
}

func (gb *mapGradBuffer) Len() int {
	n := len(gb.grads)
	for _, d := range gb.dense {
		n += d.n
	}
	return n
}

func (gb *mapGradBuffer) Reset() {
	clear(gb.grads)
	for _, d := range gb.dense {
		d.reset()
	}
}

func (gb *mapGradBuffer) Merge(other *mapGradBuffer) {
	for name, od := range other.dense {
		d := gb.Dense(name)
		for row, t := range od.touched {
			if t {
				vecmath.Axpy(1, od.m.Row(row), d.Row(row))
			}
		}
	}
	for k, g := range other.grads {
		vecmath.Axpy(1, g, gb.Row(k.param, k.row))
	}
}

func (gb *mapGradBuffer) ForEach(fn func(param *Param, row int, grad []float32)) {
	for name, d := range gb.dense {
		p := gb.ps.Get(name)
		for row, t := range d.touched {
			if t {
				fn(p, row, d.m.Row(row))
			}
		}
	}
	for k, g := range gb.grads {
		fn(gb.ps.Get(k.param), k.row, g)
	}
}

// gradEntries collects a ForEach walk as (param, row) -> gradient bits,
// failing on a repeated entry.
func gradEntries(t *testing.T, forEach func(func(*Param, int, []float32))) map[rowKey][]uint32 {
	t.Helper()
	out := make(map[rowKey][]uint32)
	forEach(func(p *Param, row int, grad []float32) {
		k := rowKey{p.Name, row}
		if _, dup := out[k]; dup {
			t.Fatalf("ForEach visited %s[%d] twice", p.Name, row)
		}
		bits := make([]uint32, len(grad))
		for i, g := range grad {
			bits[i] = math.Float32bits(g)
		}
		out[k] = bits
	})
	return out
}

// TestGradBufferMatchesMapOracle drives GradBuffer and the map oracle
// through the same random Row/Axpy/Merge/Dense/Reset/ForEach sequences and
// requires every (param, row) gradient bit for bit and Len exactly. Rows
// are written through slices kept from earlier Row calls, so a page that
// moved under a live slice would lose those writes.
func TestGradBufferMatchesMapOracle(t *testing.T) {
	ps := NewParamSet()
	ps.Add("wide", 3, gradPageFloats+37) // one row per page
	ps.Add("table", 300, 7)              // many pages
	ps.Add("bias", 200, 1)               // one page holds every row
	ps.Add("scalar", 1, 1)
	params := ps.List()

	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var got [2]*GradBuffer
			var want [2]*mapGradBuffer
			type held struct{ got, want []float32 }
			var live [2][]held // slices from Row, valid until Reset/Dense/Merge
			for b := range got {
				got[b], want[b] = NewGradBuffer(ps), newMapGradBuffer(ps)
			}
			vec := func(n int) []float32 {
				x := make([]float32, n)
				for i := range x {
					x[i] = float32(rng.NormFloat64())
				}
				return x
			}
			pick := func() (*Param, int) {
				p := params[rng.Intn(len(params))]
				// Skew towards few rows so rows are revisited.
				return p, rng.Intn(min(p.M.Rows, 1+rng.Intn(40)))
			}
			compare := func(step int, b int) {
				t.Helper()
				if g, w := got[b].Len(), want[b].Len(); g != w {
					t.Fatalf("step %d buffer %d: Len %d, oracle %d", step, b, g, w)
				}
				ge, we := gradEntries(t, got[b].ForEach), gradEntries(t, want[b].ForEach)
				if len(ge) != len(we) {
					t.Fatalf("step %d buffer %d: ForEach visited %d entries, oracle %d", step, b, len(ge), len(we))
				}
				for k, wb := range we {
					gbits, ok := ge[k]
					if !ok {
						t.Fatalf("step %d buffer %d: %s[%d] missing", step, b, k.param, k.row)
					}
					for i := range wb {
						if gbits[i] != wb[i] {
							t.Fatalf("step %d buffer %d: %s[%d][%d] = %x, oracle %x",
								step, b, k.param, k.row, i, gbits[i], wb[i])
						}
					}
				}
			}
			for step := 0; step < 3000; step++ {
				b := rng.Intn(2)
				switch op := rng.Intn(100); {
				case op < 35: // Row, then add through the returned slices
					p, row := pick()
					h := held{got[b].Row(p.Name, row), want[b].Row(p.Name, row)}
					x := vec(p.M.Cols)
					vecmath.Axpy(1, x, h.got)
					vecmath.Axpy(1, x, h.want)
					live[b] = append(live[b], h)
				case op < 55: // write through a slice held since earlier calls
					if len(live[b]) == 0 {
						continue
					}
					h := live[b][rng.Intn(len(live[b]))]
					x := vec(len(h.got))
					vecmath.Axpy(0.5, x, h.got)
					vecmath.Axpy(0.5, x, h.want)
				case op < 80:
					p, row := pick()
					alpha, x := float32(rng.NormFloat64()), vec(p.M.Cols)
					got[b].Axpy(p.Name, row, alpha, x)
					want[b].Axpy(p.Name, row, alpha, x)
				case op < 85:
					p := params[rng.Intn(len(params))]
					got[b].Dense(p.Name)
					want[b].Dense(p.Name)
					live[b] = live[b][:0]
				case op < 92:
					got[b].Merge(got[1-b])
					want[b].Merge(want[1-b])
					live[b] = live[b][:0]
				case op < 96:
					got[b].Reset()
					want[b].Reset()
					live[b] = live[b][:0]
				default:
					compare(step, b)
				}
				if g, w := got[b].Len(), want[b].Len(); g != w {
					t.Fatalf("step %d buffer %d: Len %d, oracle %d", step, b, g, w)
				}
			}
			compare(-1, 0)
			compare(-1, 1)
		})
	}
}

// TestGradBufferRefillAllocatesNothing pins the recycling contract: after
// Reset, touching no more rows than before allocates nothing.
func TestGradBufferRefillAllocatesNothing(t *testing.T) {
	ps := NewParamSet()
	ps.Add("entity", 500, 16)
	ps.Add("relation", 20, 16)
	a, b := NewGradBuffer(ps), NewGradBuffer(ps)
	x := make([]float32, 16)
	fill := func() {
		a.Reset()
		b.Reset()
		for i := 0; i < 200; i++ {
			a.Axpy("entity", (i*37)%500, 1, x)
			b.Axpy("entity", (i*11)%500, 1, x)
			b.Row("relation", i%20)[0]++
		}
		a.Merge(b)
	}
	fill()
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Errorf("refilling a reset buffer: %v allocations, want 0", n)
	}
}

func TestGradBufferMergeForeignParamSetPanics(t *testing.T) {
	a, b := NewParamSet(), NewParamSet()
	a.Add("w", 1, 1)
	b.Add("w", 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic merging buffers of different parameter sets")
		}
	}()
	NewGradBuffer(a).Merge(NewGradBuffer(b))
}

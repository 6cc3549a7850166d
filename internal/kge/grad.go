package kge

import (
	"fmt"

	"repro/internal/vecmath"
)

// gradPageFloats is the size of one sparse gradient page in float32s
// (8 KiB). A page holds a power-of-two number of rows, never fewer than one.
const gradPageFloats = 2048

// GradBuffer accumulates sparse per-row gradients for one optimizer step.
// It is not safe for concurrent use; the trainer gives every gradient chunk
// its own buffer and merges them.
//
// Storage is one accumulator per parameter, found by the parameter's
// position in its ParamSet. A sparse accumulator hands out slots in
// first-touch order: a row→slot table says where a touched row lives, a
// touched-row list remembers the order, and the slot's floats sit in
// fixed-size pages that are never moved or freed. Accumulating into a row
// therefore needs no hashing and, once the pages exist, no allocation, and
// a slice returned by Row stays valid while other rows are added. Reset
// zeroes only what was touched and keeps the pages, so a recycled buffer
// reaches a steady state in which it allocates nothing.
type GradBuffer struct {
	ps   *ParamSet
	accs []paramGrad // indexed by Param.Index
}

// paramGrad is one parameter's accumulator. Sparse slot s lives in page
// s>>shift at row offset s&(1<<shift-1), and slot[row] holds s+1 (0 means
// untouched). After Dense the parameter's rows live in dense instead and
// the sparse fields stay empty.
type paramGrad struct {
	p     *Param
	slot  []int32
	rows  []int32 // touched rows in first-touch order; rows[s] owns slot s
	pages [][]float32
	shift uint
	dense *DenseGrad
}

// DenseGrad stores one parameter's gradient as a full Rows×Cols table plus a
// touched bitmap. Kernels that touch most rows of a large table (KvsAll's
// entity backward sweeps every entity) opt in via GradBuffer.Dense: a slot
// lookup per touched row becomes an array index. Untouched rows stay
// invisible to Len, Merge, and ForEach, so the optimizer's sparse-row
// semantics are unchanged.
type DenseGrad struct {
	m       *vecmath.Matrix
	touched []bool
	n       int
}

// Row returns the dense accumulator for row, marking it touched.
func (d *DenseGrad) Row(row int) []float32 {
	if !d.touched[row] {
		d.touched[row] = true
		d.n++
	}
	return d.m.Row(row)
}

func (d *DenseGrad) reset() {
	clear(d.m.Data)
	clear(d.touched)
	d.n = 0
}

// NewGradBuffer returns an empty gradient buffer over the parameters ps
// holds now.
func NewGradBuffer(ps *ParamSet) *GradBuffer {
	gb := &GradBuffer{ps: ps, accs: make([]paramGrad, len(ps.list))}
	for i, p := range ps.list {
		a := &gb.accs[i]
		a.p = p
		a.slot = make([]int32, p.M.Rows)
		perPage := gradPageFloats / max(1, p.M.Cols)
		for 2<<a.shift <= perPage && 1<<a.shift < p.M.Rows {
			a.shift++
		}
	}
	return gb
}

// acc returns the accumulator of the parameter named name.
func (gb *GradBuffer) acc(name string) *paramGrad {
	for i := range gb.accs {
		if gb.accs[i].p.Name == name {
			return &gb.accs[i]
		}
	}
	panic(fmt.Sprintf("kge: unknown parameter %q", name))
}

// at returns sparse slot s.
func (a *paramGrad) at(s int) []float32 {
	c := a.p.M.Cols
	off := (s & (1<<a.shift - 1)) * c
	return a.pages[s>>a.shift][off : off+c : off+c]
}

// row returns the accumulator for row, giving it the next slot (or the
// dense table's row) on first touch.
func (a *paramGrad) row(row int) []float32 {
	if a.dense != nil {
		return a.dense.Row(row)
	}
	if s := a.slot[row]; s != 0 {
		return a.at(int(s) - 1)
	}
	s := len(a.rows)
	if s>>a.shift == len(a.pages) {
		a.pages = append(a.pages, make([]float32, a.p.M.Cols<<a.shift))
	}
	a.rows = append(a.rows, int32(row))
	a.slot[row] = int32(s + 1)
	return a.at(s)
}

// reset zeroes every touched row and forgets the touches, keeping storage.
func (a *paramGrad) reset() {
	if a.dense != nil {
		a.dense.reset()
		return
	}
	for _, r := range a.rows {
		a.slot[r] = 0
	}
	used := len(a.rows) * a.p.M.Cols
	for _, pg := range a.pages {
		if used <= 0 {
			break
		}
		n := min(used, len(pg))
		clear(pg[:n])
		used -= n
	}
	a.rows = a.rows[:0]
}

// Dense switches param's accumulator to dense storage and returns it.
// Rows already accumulated sparsely are folded in, so the switch is safe at
// any point, and subsequent Row(param, ...) calls transparently resolve to
// the dense table; the parameter stays dense across Reset. The per-row
// float values and accumulation orders are identical either way — Dense
// changes where gradients live, never what the optimizer sees, so training
// digests do not depend on it.
func (gb *GradBuffer) Dense(param string) *DenseGrad {
	return gb.acc(param).toDense()
}

func (a *paramGrad) toDense() *DenseGrad {
	if a.dense == nil {
		d := &DenseGrad{
			m:       vecmath.NewMatrix(a.p.M.Rows, a.p.M.Cols),
			touched: make([]bool, a.p.M.Rows),
		}
		for s, r := range a.rows {
			copy(d.Row(int(r)), a.at(s))
		}
		a.slot, a.rows, a.pages = nil, nil, nil
		a.dense = d
	}
	return a.dense
}

// Row returns the gradient accumulator for row `row` of parameter `param`,
// creating a zeroed one on first use. The slice stays valid until Reset.
func (gb *GradBuffer) Row(param string, row int) []float32 {
	return gb.acc(param).row(row)
}

// Axpy adds alpha·x into the accumulator for (param, row).
func (gb *GradBuffer) Axpy(param string, row int, alpha float32, x []float32) {
	vecmath.Axpy(alpha, x, gb.Row(param, row))
}

// Len returns the number of distinct (param, row) entries touched.
func (gb *GradBuffer) Len() int {
	n := 0
	for i := range gb.accs {
		if d := gb.accs[i].dense; d != nil {
			n += d.n
		} else {
			n += len(gb.accs[i].rows)
		}
	}
	return n
}

// Reset clears all accumulated gradients, keeping every allocation: the
// buffer reads as newly created, but refilling it allocates nothing until
// it touches more rows than it ever held.
func (gb *GradBuffer) Reset() {
	for i := range gb.accs {
		gb.accs[i].reset()
	}
}

// Merge adds other's accumulated gradients into gb. Both buffers must be
// over the same ParamSet.
func (gb *GradBuffer) Merge(other *GradBuffer) {
	if other.ps != gb.ps || len(other.accs) != len(gb.accs) {
		panic("kge: merging gradient buffers of different parameter sets")
	}
	for i := range other.accs {
		oa := &other.accs[i]
		if od := oa.dense; od != nil {
			d := gb.accs[i].toDense()
			for row, t := range od.touched {
				if t {
					vecmath.Axpy(1, od.m.Row(row), d.Row(row))
				}
			}
			continue
		}
		a := &gb.accs[i]
		for s, r := range oa.rows {
			vecmath.Axpy(1, oa.at(s), a.row(int(r)))
		}
	}
}

// ForEach visits every accumulated (param, row, grad) entry: parameters in
// registration order, dense rows ascending, sparse rows in first-touch
// order. Optimizers must not depend on the order (they do not: per-row
// updates commute).
func (gb *GradBuffer) ForEach(fn func(param *Param, row int, grad []float32)) {
	for i := range gb.accs {
		a := &gb.accs[i]
		if d := a.dense; d != nil {
			for row, t := range d.touched {
				if t {
					fn(a.p, row, d.m.Row(row))
				}
			}
			continue
		}
		for s, r := range a.rows {
			fn(a.p, int(r), a.at(s))
		}
	}
}

// Package kernels provides the numerical routines the paper's application
// studies call (§4): the constant-coefficient tridiagonal solver TRIDIAG
// used by the ADI iteration of Figure 1, a residual computation, and the
// 5-point smoothing step whose communication pattern §4 analyzes.
//
// Two variants of the tridiagonal solve exist: a whole-line solve for
// lines that are local to one processor (the dynamic-distribution ADI),
// and segment sweeps for the pipelined distributed solve a compiler must
// emit when the line is spread across processors (the static-distribution
// ADI baseline).
package kernels

import "math"

// Tridiag overwrites rhs with the solution of the constant-coefficient
// tridiagonal system
//
//	a*x[i-1] + b*x[i] + c*x[i+1] = rhs[i]
//
// (x[-1] = x[n] = 0), the contract of Figure 1's TRIDIAG: "a sequential
// routine ... which is given a right hand side and overwrites it with the
// solution of a constant coefficient tridiagonal system".  scratch must
// have len(rhs) capacity (it holds the modified diagonal); pass nil to
// allocate.
func Tridiag(rhs []float64, a, b, c float64, scratch []float64) {
	n := len(rhs)
	if n == 0 {
		return
	}
	if scratch == nil {
		scratch = make([]float64, n)
	}
	bp := scratch[:n]
	bp[0] = b
	for i := 1; i < n; i++ {
		m := a / bp[i-1]
		bp[i] = b - m*c
		rhs[i] -= m * rhs[i-1]
	}
	rhs[n-1] /= bp[n-1]
	for i := n - 2; i >= 0; i-- {
		rhs[i] = (rhs[i] - c*rhs[i+1]) / bp[i]
	}
}

// TridiagStrided is Tridiag over a strided line data[start], data[start+
// stride], ..., n elements — the form needed to solve along a row of a
// column-major local block without copying.
func TridiagStrided(data []float64, start, stride, n int, a, b, c float64, scratch []float64) {
	if n == 0 {
		return
	}
	if scratch == nil {
		scratch = make([]float64, n)
	}
	bp := scratch[:n]
	bp[0] = b
	idx := start + stride
	for i := 1; i < n; i, idx = i+1, idx+stride {
		m := a / bp[i-1]
		bp[i] = b - m*c
		data[idx] -= m * data[idx-stride]
	}
	last := start + (n-1)*stride
	data[last] /= bp[n-1]
	idx = last - stride
	for i := n - 2; i >= 0; i, idx = i-1, idx-stride {
		data[idx] = (data[idx] - c*data[idx+stride]) / bp[i]
	}
}

// SweepState carries the pipeline state of a distributed Thomas solve
// between processor segments: the modified diagonal and rhs of the last
// row of the upstream segment.
type SweepState struct {
	BP float64 // modified diagonal b'
	D  float64 // modified rhs d'
	// Valid is false on the first segment (no upstream).
	Valid bool
}

// ForwardSegment performs the forward-elimination sweep on one segment of
// a distributed line (strided access as in TridiagStrided), starting from
// the upstream state, and returns the state to pass downstream.  bp
// receives the modified diagonal for the segment (needed by
// BackwardSegment) and must have length n.
func ForwardSegment(data []float64, start, stride, n int, a, b, c float64, in SweepState, bp []float64) SweepState {
	if n == 0 {
		return in
	}
	idx := start
	prevBP, prevD := 0.0, 0.0
	have := in.Valid
	if have {
		prevBP, prevD = in.BP, in.D
	}
	for i := 0; i < n; i, idx = i+1, idx+stride {
		if have {
			m := a / prevBP
			bp[i] = b - m*c
			data[idx] -= m * prevD
		} else {
			bp[i] = b
			have = true
		}
		prevBP, prevD = bp[i], data[idx]
	}
	return SweepState{BP: prevBP, D: prevD, Valid: true}
}

// BackState carries the back-substitution pipeline state: the first
// solution value of the downstream segment.
type BackState struct {
	X     float64
	Valid bool
}

// BackwardSegment performs back-substitution on one segment given the
// downstream state (the solution value just after this segment), using
// the modified diagonal bp produced by ForwardSegment.  It returns the
// state to pass upstream (the segment's first solution value).
func BackwardSegment(data []float64, start, stride, n int, c float64, in BackState, bp []float64) BackState {
	if n == 0 {
		return in
	}
	idx := start + (n-1)*stride
	if in.Valid {
		data[idx] = (data[idx] - c*in.X) / bp[n-1]
	} else {
		data[idx] /= bp[n-1]
	}
	for i := n - 2; i >= 0; i-- {
		idx -= stride
		data[idx] = (data[idx] - c*data[idx+stride]) / bp[i]
	}
	return BackState{X: data[start], Valid: true}
}

// lineTile is the number of lines TridiagLines and the segment sweeps
// advance together when the lines are not adjacent in storage (lineStride
// != 1).  Eight independent recurrences are enough to hide the latency of
// one line's divide/multiply chain, and eight lines a power-of-two
// distance apart (the 4 KiB columns of a 512-row block) still fit the
// eight ways of the one L1 set they alias into; a pass over all the
// lines at once would evict each line before its next element is reached.
const lineTile = 8

// Factor is the forward factorization shared by every line of a
// constant-coefficient tridiagonal sweep: the modified diagonal b'_i and
// the elimination multipliers m_i = a/b'_{i-1}.  Both depend only on the
// coefficients and the position along the line (and, for a segment of a
// distributed line, on the upstream b'), never on the right-hand side, so
// a sweep computes them once and runs only the element updates per line.
type Factor struct {
	bp, m   []float64
	a, b, c float64
	in      SweepState // upstream state (zero for a whole line)
}

// NewFactor returns the factorization of the whole-line system of order n
// — the bp and multipliers Tridiag computes for every line.  Its prefix
// of length k is the factorization of order k, so one Factor serves every
// whole-line solve with n or fewer elements.
func NewFactor(n int, a, b, c float64) *Factor {
	f := new(Factor)
	f.Reset(n, a, b, c, SweepState{})
	return f
}

// Reset makes f the factorization of one n-element segment of a
// distributed line continuing the upstream state in (in.Valid false: the
// first segment, or a whole line) — the bp ForwardSegment computes for
// every line whose upstream modified diagonal is in.BP — reusing f's
// storage.  It does nothing when f already is that factorization, so a
// pipelined sweep that meets the same upstream state chunk after chunk
// and iteration after iteration factors its segment once.  The zero
// Factor is the empty factorization.
func (f *Factor) Reset(n int, a, b, c float64, in SweepState) {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if len(f.bp) == n && same(f.a, a) && same(f.b, b) && same(f.c, c) &&
		f.in.Valid == in.Valid && same(f.in.BP, in.BP) {
		return
	}
	if cap(f.bp) < n {
		f.bp, f.m = make([]float64, n), make([]float64, n)
	}
	f.bp, f.m = f.bp[:n], f.m[:n]
	f.a, f.b, f.c, f.in = a, b, c, SweepState{BP: in.BP, Valid: in.Valid}
	prevBP, have := in.BP, in.Valid
	for i := 0; i < n; i++ {
		if have {
			f.m[i] = a / prevBP
			f.bp[i] = b - f.m[i]*c
		} else {
			f.bp[i] = b
			have = true
		}
		prevBP = f.bp[i]
	}
}

// TridiagLines solves `lines` independent constant-coefficient systems of
// order n in place, one per line: element i of line l is data[start +
// l*lineStride + i*stride].  f is NewFactor(N, a, b, c) for any N >= n.
//
// The result is bit-identical to TridiagStrided on each line: every
// element goes through the same operations in the same order — the
// multiplier and modified diagonal are read from f instead of recomputed,
// and the back substitution divides by b'_i, never multiplies by a
// reciprocal.  Only the interleaving of the lines changes (see eachTile).
func TridiagLines(data []float64, start, stride, n, lineStride, lines int, f *Factor) {
	if n == 0 {
		return
	}
	last, bpn := (n-1)*stride, f.bp[n-1]
	eachTile(lineStride, lines, func(l0, t int) {
		base := start + l0*lineStride
		eliminate(data, base, stride, n, lineStride, t, f.m)
		for l := 0; l < t; l++ {
			data[base+l*lineStride+last] /= bpn
		}
		substitute(data, base, stride, n, lineStride, t, f.bp, f.c)
	})
}

// ForwardSegmentLines is ForwardSegment on `lines` lines of one pipeline
// chunk (layout as in TridiagLines), bit-identical per line.  The lines
// share their upstream modified diagonal — for a constant-coefficient
// system b' depends only on the position along the line — so f is the
// factorization f.Reset(n, a, b, c, st) made for the one state st whose BP
// and Valid every in[l] carries; only in[l].D is read per line.  in and
// out hold at least `lines` states; out[l] receives the state
// ForwardSegment returns for line l.
func ForwardSegmentLines(data []float64, start, stride, n, lineStride, lines int, f *Factor, in, out []SweepState) {
	if n == 0 {
		copy(out[:lines], in[:lines])
		return
	}
	last := (n - 1) * stride
	eachTile(lineStride, lines, func(l0, t int) {
		base := start + l0*lineStride
		if f.in.Valid {
			for l := 0; l < t; l++ {
				data[base+l*lineStride] -= f.m[0] * in[l0+l].D
			}
		}
		eliminate(data, base, stride, n, lineStride, t, f.m)
		for l := 0; l < t; l++ {
			out[l0+l] = SweepState{BP: f.bp[n-1], D: data[base+l*lineStride+last], Valid: true}
		}
	})
}

// BackwardSegmentLines is BackwardSegment on `lines` lines of one
// pipeline chunk (layout as in TridiagLines), bit-identical per line:
// in[l] is line l's downstream state, f the factorization its forward
// sweep used, and out[l] receives the state BackwardSegment returns (in
// and out hold at least `lines` states).
func BackwardSegmentLines(data []float64, start, stride, n, lineStride, lines int, f *Factor, in, out []BackState) {
	if n == 0 {
		copy(out[:lines], in[:lines])
		return
	}
	last, bpn := (n-1)*stride, f.bp[n-1]
	eachTile(lineStride, lines, func(l0, t int) {
		base := start + l0*lineStride
		for l := 0; l < t; l++ {
			q := base + l*lineStride + last
			if in[l0+l].Valid {
				data[q] = (data[q] - f.c*in[l0+l].X) / bpn
			} else {
				data[q] /= bpn
			}
		}
		substitute(data, base, stride, n, lineStride, t, f.bp, f.c)
		for l := 0; l < t; l++ {
			out[l0+l] = BackState{X: data[base+l*lineStride], Valid: true}
		}
	})
}

// eachTile calls fn for the consecutive groups [l0, l0+t) of lines that
// one element-major pass advances together.  Adjacent lines that are
// adjacent in storage (lineStride == 1, the rows of a column-major block)
// form one group: each element step updates a contiguous slice of all of
// them.  Otherwise the lines go lineTile at a time.
func eachTile(lineStride, lines int, fn func(l0, t int)) {
	tile := lineTile
	if lineStride == 1 {
		tile = lines
	}
	for l0 := 0; l0 < lines; l0 += tile {
		fn(l0, min(tile, lines-l0))
	}
}

// eliminate runs the forward elimination x[i] -= m[i]*x[i-1], i = 1 ..
// n-1, on t lines, element-major.
func eliminate(data []float64, start, stride, n, lineStride, t int, m []float64) {
	switch {
	case lineStride == 1:
		prev := data[start : start+t]
		for i := 1; i < n; i++ {
			mi := m[i]
			cur := data[start+i*stride : start+i*stride+t]
			prev = prev[:len(cur)]
			for l := range cur {
				cur[l] -= mi * prev[l]
			}
			prev = cur
		}
	case stride == 1 && t == 8:
		x0, x1, x2, x3, x4, x5, x6, x7 := tile8(data, start, n, lineStride)
		m = m[:len(x0)]
		p0, p1, p2, p3, p4, p5, p6, p7 := x0[0], x1[0], x2[0], x3[0], x4[0], x5[0], x6[0], x7[0]
		for i := 1; i < len(x0); i++ {
			mi := m[i]
			// All loads of an element step precede its stores: the lines
			// sit a multiple of 4 KiB apart, and a load issued after a
			// store with the same low address bits stalls on it.
			y0, y1, y2, y3, y4, y5, y6, y7 := x0[i], x1[i], x2[i], x3[i], x4[i], x5[i], x6[i], x7[i]
			p0, p1, p2, p3 = y0-mi*p0, y1-mi*p1, y2-mi*p2, y3-mi*p3
			p4, p5, p6, p7 = y4-mi*p4, y5-mi*p5, y6-mi*p6, y7-mi*p7
			x0[i], x1[i], x2[i], x3[i], x4[i], x5[i], x6[i], x7[i] = p0, p1, p2, p3, p4, p5, p6, p7
		}
	default:
		for i := 1; i < n; i++ {
			mi, p := m[i], start+i*stride
			for l := 0; l < t; l++ {
				q := p + l*lineStride
				data[q] -= mi * data[q-stride]
			}
		}
	}
}

// substitute runs the back substitution x[i] = (x[i] - c*x[i+1]) / bp[i],
// i = n-2 .. 0, on t lines, element-major; x[n-1] is already solved.
func substitute(data []float64, start, stride, n, lineStride, t int, bp []float64, c float64) {
	switch {
	case lineStride == 1:
		next := data[start+(n-1)*stride : start+(n-1)*stride+t]
		for i := n - 2; i >= 0; i-- {
			bpi := bp[i]
			cur := data[start+i*stride : start+i*stride+t]
			next = next[:len(cur)]
			for l := range cur {
				cur[l] = (cur[l] - c*next[l]) / bpi
			}
			next = cur
		}
	case stride == 1 && t == 8:
		x0, x1, x2, x3, x4, x5, x6, x7 := tile8(data, start, n, lineStride)
		bp = bp[:len(x0)]
		k := len(x0) - 1
		p0, p1, p2, p3, p4, p5, p6, p7 := x0[k], x1[k], x2[k], x3[k], x4[k], x5[k], x6[k], x7[k]
		for i := k - 1; i >= 0; i-- {
			bpi := bp[i]
			y0, y1, y2, y3, y4, y5, y6, y7 := x0[i], x1[i], x2[i], x3[i], x4[i], x5[i], x6[i], x7[i]
			p0, p1, p2, p3 = (y0-c*p0)/bpi, (y1-c*p1)/bpi, (y2-c*p2)/bpi, (y3-c*p3)/bpi
			p4, p5, p6, p7 = (y4-c*p4)/bpi, (y5-c*p5)/bpi, (y6-c*p6)/bpi, (y7-c*p7)/bpi
			x0[i], x1[i], x2[i], x3[i], x4[i], x5[i], x6[i], x7[i] = p0, p1, p2, p3, p4, p5, p6, p7
		}
	default:
		for i := n - 2; i >= 0; i-- {
			bpi, p := bp[i], start+i*stride
			for l := 0; l < t; l++ {
				q := p + l*lineStride
				data[q] = (data[q] - c*data[q+stride]) / bpi
			}
		}
	}
}

// tile8 returns eight contiguous n-element lines, lineStride apart,
// resliced to one length so the unrolled loops above index them without
// bounds checks.
func tile8(data []float64, start, n, lineStride int) (x0, x1, x2, x3, x4, x5, x6, x7 []float64) {
	line := func(k int) []float64 { return data[start+k*lineStride : start+k*lineStride+n] }
	x0 = line(0)
	return x0, line(1)[:len(x0)], line(2)[:len(x0)], line(3)[:len(x0)],
		line(4)[:len(x0)], line(5)[:len(x0)], line(6)[:len(x0)], line(7)[:len(x0)]
}

// Smooth5 computes one Jacobi smoothing step on the interior of a dense
// column-major nx×ny grid: out = 0.25*(N+S+E+W).  Boundary values are
// copied through.  The 4-nearest-neighbour dependence is the access
// pattern of the paper's §4 grid example.
func Smooth5(out, in []float64, nx, ny int) {
	copy(out, in)
	for j := 1; j < ny-1; j++ {
		base := j * nx
		for i := 1; i < nx-1; i++ {
			k := base + i
			out[k] = 0.25 * (in[k-1] + in[k+1] + in[k-nx] + in[k+nx])
		}
	}
}

// SmoothRow applies the 5-point Jacobi update to one contiguous row span
// of a column-major grid: dst[i] = 0.25*(W+E+N+S) for i in [off, off+n),
// with rowStride the storage distance between vertically adjacent
// elements (dimension-0 storage stride must be 1).  This is the span
// form of Smooth5's inner loop, used by the runtime's distributed
// smoothing sweep so locally owned rows are processed as flat slices —
// no per-point index mapping inside the sweep.
func SmoothRow(dst, src []float64, off, n, rowStride int) {
	for i := off; i < off+n; i++ {
		dst[i] = 0.25 * (src[i-1] + src[i+1] + src[i-rowStride] + src[i+rowStride])
	}
}

// Resid computes v = f - A(u) for the 5-point Laplacian A(u) = 4u -
// u(i±1,j) - u(i,j±1) on the interior of a dense column-major nx×ny grid;
// boundary v is set to 0.  This is the RESID of Figure 1.
func Resid(v, u, f []float64, nx, ny int) {
	for i := range v {
		v[i] = 0
	}
	for j := 1; j < ny-1; j++ {
		base := j * nx
		for i := 1; i < nx-1; i++ {
			k := base + i
			v[k] = f[k] - (4*u[k] - u[k-1] - u[k+1] - u[k-nx] - u[k+nx])
		}
	}
}

// SerialADI runs iters ADI iterations on a dense column-major nx×ny grid
// v (in place): each iteration solves the constant-coefficient tridiagonal
// system along every x-line (columns, stride 1) and then along every
// y-line (rows, stride nx).  It is the reference the distributed runs are
// validated against.
func SerialADI(v []float64, nx, ny, iters int, a, b, c float64) {
	scratch := make([]float64, max(nx, ny))
	for it := 0; it < iters; it++ {
		for j := 0; j < ny; j++ {
			Tridiag(v[j*nx:(j+1)*nx], a, b, c, scratch)
		}
		for i := 0; i < nx; i++ {
			TridiagStrided(v, i, nx, ny, a, b, c, scratch)
		}
	}
}

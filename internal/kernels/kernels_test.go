package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// applyTridiag computes y = T x for the constant-coefficient tridiagonal
// operator.
func applyTridiag(x []float64, a, b, c float64) []float64 {
	n := len(x)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = b * x[i]
		if i > 0 {
			y[i] += a * x[i-1]
		}
		if i < n-1 {
			y[i] += c * x[i+1]
		}
	}
	return y
}

func TestTridiagSolvesSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 100} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		a, b, c := -1.0, 4.0, -1.0
		rhs := applyTridiag(x, a, b, c)
		Tridiag(rhs, a, b, c, nil)
		for i := range x {
			if math.Abs(rhs[i]-x[i]) > 1e-10 {
				t.Fatalf("n=%d: x[%d] = %g want %g", n, i, rhs[i], x[i])
			}
		}
	}
}

func TestTridiagStridedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, stride, start = 17, 3, 2
	data := make([]float64, start+n*stride+5)
	for i := range data {
		data[i] = rng.Float64()
	}
	dense := make([]float64, n)
	for i := 0; i < n; i++ {
		dense[i] = data[start+i*stride]
	}
	a, b, c := -1.0, 4.0, -1.0
	Tridiag(dense, a, b, c, nil)
	TridiagStrided(data, start, stride, n, a, b, c, nil)
	for i := 0; i < n; i++ {
		if math.Abs(data[start+i*stride]-dense[i]) > 1e-12 {
			t.Fatalf("strided[%d] = %g want %g", i, data[start+i*stride], dense[i])
		}
	}
	// untouched elements stay untouched
	if data[0] == 0 {
		t.Fatal("out-of-line element clobbered")
	}
}

func TestSegmentedSweepsMatchWholeLine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 40
	a, b, c := -1.0, 4.0, -1.0
	for _, cuts := range [][]int{{20}, {7, 23}, {1, 2, 3}, {39}} {
		whole := make([]float64, n)
		for i := range whole {
			whole[i] = rng.Float64()
		}
		seg := make([]float64, n)
		copy(seg, whole)
		Tridiag(whole, a, b, c, nil)

		// segmented: forward across segments, then backward in reverse
		bounds := append(append([]int{0}, cuts...), n)
		bps := make([][]float64, len(bounds)-1)
		st := SweepState{}
		for s := 0; s+1 < len(bounds); s++ {
			lo, hi := bounds[s], bounds[s+1]
			bps[s] = make([]float64, hi-lo)
			st = ForwardSegment(seg, lo, 1, hi-lo, a, b, c, st, bps[s])
		}
		back := BackState{}
		for s := len(bounds) - 2; s >= 0; s-- {
			lo, hi := bounds[s], bounds[s+1]
			back = BackwardSegment(seg, lo, 1, hi-lo, c, back, bps[s])
		}
		for i := range whole {
			if math.Abs(seg[i]-whole[i]) > 1e-10 {
				t.Fatalf("cuts %v: seg[%d] = %g want %g", cuts, i, seg[i], whole[i])
			}
		}
	}
}

func TestSegmentedSweepEmptySegment(t *testing.T) {
	const n = 10
	a, b, c := -1.0, 4.0, -1.0
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i + 1)
	}
	want := make([]float64, n)
	copy(want, data)
	Tridiag(want, a, b, c, nil)

	bp0 := make([]float64, 4)
	bp2 := make([]float64, 6)
	st := ForwardSegment(data, 0, 1, 4, a, b, c, SweepState{}, bp0)
	st = ForwardSegment(data, 4, 1, 0, a, b, c, st, nil) // empty middle
	ForwardSegment(data, 4, 1, 6, a, b, c, st, bp2)
	back := BackwardSegment(data, 4, 1, 6, c, BackState{}, bp2)
	back = BackwardSegment(data, 4, 1, 0, c, back, nil)
	BackwardSegment(data, 0, 1, 4, c, back, bp0)
	for i := range want {
		if math.Abs(data[i]-want[i]) > 1e-10 {
			t.Fatalf("with empty segment: [%d] = %g want %g", i, data[i], want[i])
		}
	}
}

func TestSmooth5(t *testing.T) {
	const nx, ny = 4, 3
	in := make([]float64, nx*ny)
	for i := range in {
		in[i] = float64(i)
	}
	out := make([]float64, nx*ny)
	Smooth5(out, in, nx, ny)
	// interior points: (1,1) at 1*4+1=5 and (2,1) at 6
	want5 := 0.25 * (in[4] + in[6] + in[1] + in[9])
	if out[5] != want5 {
		t.Fatalf("out[5] = %g want %g", out[5], want5)
	}
	// boundary copied
	if out[0] != in[0] || out[nx*ny-1] != in[nx*ny-1] {
		t.Fatal("boundary not copied")
	}
}

func TestResid(t *testing.T) {
	const nx, ny = 5, 5
	u := make([]float64, nx*ny)
	f := make([]float64, nx*ny)
	for i := range u {
		u[i] = float64(i % 7)
		f[i] = 1
	}
	v := make([]float64, nx*ny)
	Resid(v, u, f, nx, ny)
	k := 2*nx + 2 // interior point (2,2)
	want := f[k] - (4*u[k] - u[k-1] - u[k+1] - u[k-nx] - u[k+nx])
	if v[k] != want {
		t.Fatalf("v = %g want %g", v[k], want)
	}
	if v[0] != 0 {
		t.Fatal("boundary residual should be 0")
	}
}

func TestSerialADIConverges(t *testing.T) {
	// repeated tridiagonal smoothing with a diagonally dominant operator
	// contracts toward zero for zero rhs
	const nx, ny = 16, 16
	v := make([]float64, nx*ny)
	rng := rand.New(rand.NewSource(4))
	for i := range v {
		v[i] = rng.Float64()
	}
	norm0 := 0.0
	for _, x := range v {
		norm0 += x * x
	}
	SerialADI(v, nx, ny, 5, -1, 4, -1)
	norm1 := 0.0
	for _, x := range v {
		norm1 += x * x
	}
	if norm1 >= norm0 {
		t.Fatalf("ADI did not contract: %g -> %g", norm0, norm1)
	}
}

func TestSmoothRowMatchesSmooth5(t *testing.T) {
	const nx, ny = 9, 7
	in := make([]float64, nx*ny)
	for i := range in {
		in[i] = float64((i*13)%17) * 0.5
	}
	want := make([]float64, nx*ny)
	Smooth5(want, in, nx, ny)
	got := make([]float64, nx*ny)
	copy(got, in)
	for j := 1; j < ny-1; j++ {
		SmoothRow(got, in, j*nx+1, nx-2, nx)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: SmoothRow path %v, Smooth5 %v", i, got[i], want[i])
		}
	}
}

// lineLayout places `lines` lines of n elements in a flat array: element
// i of line l at start + l*lineStride + i*stride.
type lineLayout struct {
	name                      string
	start, stride, lineStride int
}

// layoutsFor returns the layouts the batched kernels distinguish for n
// elements on `lines` lines, each with a nonzero start and a gap around
// every line: rows (adjacent lines adjacent in storage), columns
// (contiguous lines, lineTile at a time) and a layout strided both ways.
func layoutsFor(n, lines int) []lineLayout {
	return []lineLayout{
		{"rows", 3, lines + 2, 1},
		{"cols", 5, 1, n + 3},
		{"strided", 2, 2*lines + 1, 2},
	}
}

func (ly lineLayout) size(n, lines int) int {
	return ly.start + (lines-1)*ly.lineStride + (n-1)*ly.stride + 4
}

func randomData(rng *rand.Rand, size int) []float64 {
	d := make([]float64, size)
	for i := range d {
		d[i] = rng.Float64()*12 - 6
	}
	return d
}

// sameBits fails the test unless got and want are equal bit for bit,
// element by element — elements outside the lines included, so a kernel
// that writes outside its lines fails here too.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), per-line reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// lineCounts are the line counts around the tile boundary.
var lineCounts = []int{1, lineTile - 1, lineTile, lineTile + 1, 2*lineTile + 3}

func TestTridiagLinesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, co := range [][3]float64{{-1, 4, -1}, {0.3, -2.5, 1.1}} {
		a, b, c := co[0], co[1], co[2]
		for _, n := range []int{1, 2, 3, 17, 64} {
			// one factorization of a higher order serves every shorter line
			f := NewFactor(n+5, a, b, c)
			for _, lines := range lineCounts {
				for _, ly := range layoutsFor(n, lines) {
					got := randomData(rng, ly.size(n, lines))
					want := append([]float64(nil), got...)
					for l := 0; l < lines; l++ {
						TridiagStrided(want, ly.start+l*ly.lineStride, ly.stride, n, a, b, c, nil)
					}
					TridiagLines(got, ly.start, ly.stride, n, ly.lineStride, lines, f)
					sameBits(t, fmt.Sprintf("%s n=%d lines=%d coef=%v", ly.name, n, lines, co), got, want)
				}
			}
		}
	}
}

// TestSegmentLinesBitIdentical runs the pipelined solve of a distributed
// line both ways — per line through ForwardSegment/BackwardSegment and
// per chunk of lines through the batched sweeps — over uneven and empty
// segments, and compares the data and every pipeline state bit for bit.
func TestSegmentLinesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const a, b, c = -1.0, 4.0, -1.0
	for _, n := range []int{1, 2, 3, 19} {
		for _, cuts := range [][]int{nil, {n / 2}, {0, n}, {1, 1, n - 1}, {n / 3, n / 3, 2 * n / 3}} {
			bounds := append(append([]int{0}, cuts...), n)
			sort.Ints(bounds) // empty segments wherever two bounds coincide
			for _, lines := range lineCounts {
				for _, ly := range layoutsFor(n, lines) {
					what := fmt.Sprintf("%s n=%d cuts=%v lines=%d", ly.name, n, cuts, lines)
					got := randomData(rng, ly.size(n, lines))
					want := append([]float64(nil), got...)
					segStart := func(s int) int { return ly.start + bounds[s]*ly.stride }
					nseg := len(bounds) - 1

					// per-line reference
					wantF := make([][]SweepState, nseg)
					wantB := make([][]BackState, nseg)
					for l := 0; l < lines; l++ {
						bps := make([][]float64, nseg)
						st := SweepState{}
						for s := 0; s < nseg; s++ {
							m := bounds[s+1] - bounds[s]
							bps[s] = make([]float64, m)
							st = ForwardSegment(want, segStart(s)+l*ly.lineStride, ly.stride, m, a, b, c, st, bps[s])
							wantF[s] = append(wantF[s], st)
						}
						back := BackState{}
						for s := nseg - 1; s >= 0; s-- {
							m := bounds[s+1] - bounds[s]
							back = BackwardSegment(want, segStart(s)+l*ly.lineStride, ly.stride, m, c, back, bps[s])
							wantB[s] = append(wantB[s], back)
						}
					}

					// batched: one shared factorization per segment
					facs := make([]*Factor, nseg)
					in := make([]SweepState, lines)
					for s := 0; s < nseg; s++ {
						m := bounds[s+1] - bounds[s]
						facs[s] = new(Factor)
						facs[s].Reset(m, a, b, c, in[0])
						out := make([]SweepState, lines)
						ForwardSegmentLines(got, segStart(s), ly.stride, m, ly.lineStride, lines, facs[s], in, out)
						for l := range out {
							if out[l] != wantF[s][l] {
								t.Fatalf("%s: forward state seg %d line %d = %+v, per-line %+v", what, s, l, out[l], wantF[s][l])
							}
						}
						in = out
					}
					back := make([]BackState, lines)
					for s := nseg - 1; s >= 0; s-- {
						m := bounds[s+1] - bounds[s]
						out := make([]BackState, lines)
						BackwardSegmentLines(got, segStart(s), ly.stride, m, ly.lineStride, lines, facs[s], back, out)
						for l := range out {
							if out[l] != wantB[s][l] {
								t.Fatalf("%s: backward state seg %d line %d = %+v, per-line %+v", what, s, l, out[l], wantB[s][l])
							}
						}
						back = out
					}
					sameBits(t, what, got, want)
				}
			}
		}
	}
}

// TestFactorReset: Reset keeps the factorization while the segment and
// its upstream b' stay the same (the per-line d' is no part of it), and
// recomputes it — to ForwardSegment's bp — when either changes.
func TestFactorReset(t *testing.T) {
	const a, b, c = -1.0, 4.0, -1.0
	check := func(f *Factor, n int, in SweepState) {
		t.Helper()
		want := make([]float64, n)
		ForwardSegment(make([]float64, n), 0, 1, n, a, b, c, in, want)
		sameBits(t, fmt.Sprintf("n=%d in=%+v", n, in), f.bp, want)
	}
	var f Factor
	in := SweepState{BP: 3.75, D: 1, Valid: true}
	f.Reset(16, a, b, c, in)
	check(&f, 16, in)
	f.bp[3] = 99 // a sentinel that only a recomputation overwrites
	f.Reset(16, a, b, c, SweepState{BP: 3.75, D: -7, Valid: true})
	if f.bp[3] != 99 {
		t.Fatal("Reset with the same segment and upstream b' recomputed the factorization")
	}
	for _, next := range []struct {
		n  int
		in SweepState
	}{{16, SweepState{BP: 3.5, Valid: true}}, {16, SweepState{}}, {9, SweepState{}}, {40, in}} {
		f.Reset(next.n, a, b, c, next.in)
		check(&f, next.n, next.in)
	}
}

// BenchmarkTridiagLines times one ADI sweep over a rank's local block at
// the benchmark workload's shapes (512² on 4 ranks): the x-sweep over a
// 512×128 (:,BLOCK) block, whose 128 lines are contiguous columns 4 KiB
// apart, and the y-sweep over a 128×512 (BLOCK,:) block, whose 128 lines
// are rows with adjacent lines and 1 KiB between elements.  "per-line"
// solves one line at a time with TridiagStrided (the parent kernel);
// "batched" is TridiagLines with the factorization computed once.
func BenchmarkTridiagLines(b *testing.B) {
	const a, d, c = -1.0, 4.0, -1.0
	shapes := []struct {
		name                             string
		n, stride, lineStride, lines, sz int
	}{
		{"cols-512x128", 512, 1, 512, 128, 512 * 128},
		{"rows-128x512", 512, 128, 1, 128, 128 * 512},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(1))
		init := make([]float64, sh.sz)
		for i := range init {
			init[i] = rng.Float64()*12 - 6
		}
		data := make([]float64, sh.sz)
		f := NewFactor(sh.n, a, d, c)
		scratch := make([]float64, sh.n)
		run := func(b *testing.B, sweep func()) {
			b.SetBytes(int64(8 * sh.sz))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(data, init) // repeated solves would decay into subnormals
				b.StartTimer()
				sweep()
			}
		}
		b.Run(sh.name+"/per-line", func(b *testing.B) {
			run(b, func() {
				for l := 0; l < sh.lines; l++ {
					TridiagStrided(data, l*sh.lineStride, sh.stride, sh.n, a, d, c, scratch)
				}
			})
		})
		b.Run(sh.name+"/batched", func(b *testing.B) {
			run(b, func() { TridiagLines(data, 0, sh.stride, sh.n, sh.lineStride, sh.lines, f) })
		})
	}
}

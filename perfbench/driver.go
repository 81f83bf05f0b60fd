package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/pario"
	"repro/internal/redist"
)

// The traced driver runs each workload's loop from this file as a
// sequence of public layer calls, with a span around every call.  It
// mirrors internal/apps statement by statement — same declarations,
// barriers, kernels and collectives in the same order — so its checksum,
// data messages and payload bytes equal the apps run's exactly; agree()
// in main.go checks that on every driver run.  Compute is charged to the cost model
// as the measured kernel time instead of apps' fixed FlopTime, so the
// model's makespan is a prediction built from measured constants.

// Span names: one per layer boundary the driver calls across.
const (
	spDeclare    = "core.declare"
	spFill       = "core.fill"
	spDistribute = "core.distribute"
	spPlan       = "redist.plan"
	spKernel     = "kernels"
	spGhost      = "darray.ghost"
	spGhostWait  = "darray.ghost_wait"
	spBarrier    = "machine.barrier"
	spPollJoin   = "machine.poll_join"
	spAdmit      = "machine.admit"
	spAwaitJoin  = "machine.await_join"
	spSave       = "ckpt.save"
	spRestore    = "ckpt.restore"
	spP2P        = "msg.p2p"
	spColl       = "msg.collective"
)

// traffic is one layer's data messages and payload bytes sent.
type traffic struct{ msgs, bytes int64 }

// probe wraps layer calls.  rec records spans (nil: untraced); sent, when
// non-nil, accumulates each layer's data traffic from the calling rank's
// own send counters, which only that rank's goroutine advances.
type probe struct {
	rec   *recorder
	stats *msg.Stats
	sent  []map[string]*traffic
}

func (p *probe) call(ctx *machine.Ctx, name string, fn func() error) error {
	rank := ctx.PhysRank()
	var pre msg.Snapshot
	if p.sent != nil {
		pre = p.stats.Snapshot()
	}
	p.rec.begin(rank, name)
	err := fn()
	p.rec.end(rank)
	if p.sent != nil {
		post := p.stats.Snapshot()
		t := p.sent[rank][name]
		if t == nil {
			t = &traffic{}
			p.sent[rank][name] = t
		}
		t.msgs += post.DataSent[rank] - pre.DataSent[rank]
		t.bytes += post.BytesSent[rank] - pre.BytesSent[rank]
	}
	return err
}

// kernel runs compute as a kernels span and charges its measured time to
// the cost model.
func (p *probe) kernel(ctx *machine.Ctx, fn func()) {
	t0 := time.Now()
	p.rec.begin(ctx.PhysRank(), spKernel)
	fn()
	p.rec.end(ctx.PhysRank())
	ctx.Charge(time.Since(t0).Seconds())
}

func (p *probe) barrier(ctx *machine.Ctx) error {
	return p.call(ctx, spBarrier, ctx.Barrier)
}

// driverOpts selects what a driver run records.
type driverOpts struct {
	traced bool // record spans
	// census records each layer's traffic (for the α/β fit's message
	// sizes) and the distributions the run moved through (for the layer
	// replay).
	census  bool
	alpha   float64 // cost model; 0,0 = none
	beta    float64
	ckptDir string
}

// driverResult is what one driver run measured.
type driverResult struct {
	checksum       float64
	msgs, bytes    int64
	peakWire       int64
	wall           time.Duration
	modelS         float64
	points         float64 // kernel work units (grid-point or particle updates)
	computedBytes  float64 // kernel bytes computed from array sizes
	hits, misses   int
	finalEpoch     int
	particlesStart float64
	pario          *pario.Metrics
	layers         layerTimes
	sent           map[string]traffic // summed over ranks
	chain          []*dist.Distribution
	ckptDists      []*dist.Distribution
}

func newProbe(m *machine.Machine, o driverOpts, capacity int) *probe {
	p := &probe{stats: m.Stats()}
	if o.traced {
		p.rec = newRecorder(capacity)
	}
	if o.census {
		p.sent = make([]map[string]*traffic, capacity)
		for i := range p.sent {
			p.sent[i] = map[string]*traffic{}
		}
	}
	return p
}

func machineOpts(o driverOpts, capacity int) []machine.Option {
	if o.alpha == 0 && o.beta == 0 {
		return nil
	}
	return []machine.Option{machine.WithCostModel(msg.NewCostModel(capacity, o.alpha, o.beta))}
}

func (p *probe) finish(res *driverResult, m *machine.Machine, start time.Time) {
	res.wall = time.Since(start)
	sn := m.Stats().Snapshot()
	res.msgs, res.bytes = sn.TotalDataMsgs(), sn.TotalBytes()
	res.peakWire = m.Stats().PeakWireBytes()
	if cm := m.Cost(); cm != nil {
		res.modelS = cm.Makespan()
	}
	if p.rec != nil {
		res.layers = p.rec.summarize()
	}
	if p.sent != nil {
		res.sent = map[string]traffic{}
		for _, per := range p.sent {
			for k, t := range per {
				s := res.sent[k]
				s.msgs += t.msgs
				s.bytes += t.bytes
				res.sent[k] = s
			}
		}
	}
}

// planned mirrors the schedule cache of one rank: a DISTRIBUTE whose
// (old, new, np) triple it has not seen makes the darray layer build a
// schedule, which the driver times as redist.plan by building the same
// schedule through the public redist API.
type planned map[string]bool

// plan runs before a DISTRIBUTE of a to typ over the engine's processors.
func (p *probe) plan(ctx *machine.Ctx, seen planned, e *core.Engine, a *core.Array, typ dist.Type) error {
	if p.rec == nil {
		return nil
	}
	oldD := a.Dist()
	newD, err := dist.New(typ, a.Domain(), e.DefaultTarget())
	if err != nil || oldD.Equal(newD) {
		return err
	}
	key := fmt.Sprint(oldD.Fingerprint(), "|", newD.Fingerprint(), "|", ctx.NP())
	if seen[key] {
		return nil
	}
	seen[key] = true
	return p.call(ctx, spPlan, func() error {
		redist.Build(oldD, newD, ctx.Rank(), ctx.NP())
		return nil
	})
}

// --- ADI (Figure 1, ADIDynamic) ---------------------------------------

const adiA, adiB, adiC = -1.0, 4.0, -1.0

func adiInitial(p index.Point) float64 { return float64((p[0]*31+p[1]*17)%13) - 6.0 }

func colsType() dist.Type { return dist.NewType(dist.ElidedDim(), dist.BlockDim()) }
func rowsType() dist.Type { return dist.NewType(dist.BlockDim(), dist.ElidedDim()) }

func driveADI(nx, ny, iters, np int, o driverOpts) (driverResult, error) {
	start := time.Now()
	m := machine.New(np, machineOpts(o, np)...)
	defer m.Close()
	e := core.NewEngine(m)
	p := newProbe(m, o, np)
	var res driverResult
	dom := index.Dim(nx, ny)
	err := m.Run(func(ctx *machine.Ctx) error {
		rank := ctx.PhysRank()
		p.rec.begin(rank, rootName)
		defer p.rec.end(rank)
		seen := planned{}
		var v *core.Array
		cols := core.DistSpec{Type: colsType()}
		if err := p.call(ctx, spDeclare, func() (err error) {
			v, err = e.Declare(ctx, core.Decl{Name: "V", Domain: dom, Dynamic: true, Init: &cols})
			return err
		}); err != nil {
			return err
		}
		p.call(ctx, spFill, func() error { v.FillFunc(ctx, adiInitial); return nil })
		if err := p.barrier(ctx); err != nil {
			return err
		}
		if o.census && ctx.Rank() == 0 {
			res.chain = append(res.chain, v.Dist())
		}
		distribute := func(typ dist.Type) error {
			if err := p.plan(ctx, seen, e, v, typ); err != nil {
				return err
			}
			// account(): barrier, DISTRIBUTE, barrier — as in apps.
			if err := p.barrier(ctx); err != nil {
				return err
			}
			if err := p.call(ctx, spDistribute, func() error {
				return e.Distribute(ctx, []*core.Array{v}, core.DimsOf(typ.Dims...))
			}); err != nil {
				return err
			}
			if o.census && ctx.Rank() == 0 {
				res.chain = append(res.chain, v.Dist())
			}
			return p.barrier(ctx)
		}
		for it := 0; it < iters; it++ {
			if it > 0 {
				if err := distribute(colsType()); err != nil {
					return err
				}
			}
			p.kernel(ctx, func() { adiSweep(ctx, v, 0) })
			if err := p.barrier(ctx); err != nil {
				return err
			}
			if err := distribute(rowsType()); err != nil {
				return err
			}
			p.kernel(ctx, func() { adiSweep(ctx, v, 1) })
			if err := p.barrier(ctx); err != nil {
				return err
			}
		}
		var s float64
		if err := p.call(ctx, spColl, func() (err error) {
			s, err = v.DArray().ReduceSum(ctx)
			return err
		}); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			res.checksum = s
			res.hits, res.misses = v.DArray().ScheduleCacheStats()
			res.finalEpoch = ctx.Epoch()
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	p.finish(&res, m, start)
	res.points = 2 * float64(nx*ny*iters)
	res.computedBytes = 16 * res.points
	return res, nil
}

// adiSweep solves the tridiagonal systems along dim; every line is local.
func adiSweep(ctx *machine.Ctx, v *core.Array, dim int) {
	l := v.Local(ctx)
	alloc := l.AllocShape()
	other := 1 - dim
	strd := l.Stride()
	n := alloc[dim]
	if n == 0 || alloc[other] == 0 {
		return
	}
	scratch := make([]float64, n)
	data := l.Data()
	for li := 0; li < alloc[other]; li++ {
		kernels.TridiagStrided(data, li*strd[other], strd[dim], n, adiA, adiB, adiC, scratch)
	}
}

// --- PIC (Figure 2, B_BLOCK rebalancing) -------------------------------

type picParams struct {
	ncell, steps, np int
	drift            float64
	initPerCell      int
	workPerParticle  int
	every            int
	threshold        float64
}

func drivePIC(pp picParams, o driverOpts) (driverResult, error) {
	start := time.Now()
	m := machine.New(pp.np, machineOpts(o, pp.np)...)
	defer m.Close()
	e := core.NewEngine(m)
	p := newProbe(m, o, pp.np)
	var res driverResult
	dom := index.Dim(pp.ncell)
	var particleSteps float64
	err := m.Run(func(ctx *machine.Ctx) error {
		rank := ctx.PhysRank()
		p.rec.begin(rank, rootName)
		defer p.rec.end(rank)
		seen := planned{}
		var field, count *core.Array
		blockInit := core.DistSpec{Type: dist.NewType(dist.BlockDim())}
		if err := p.call(ctx, spDeclare, func() (err error) {
			if field, err = e.Declare(ctx, core.Decl{Name: "FIELD", Domain: dom, Dynamic: true, Init: &blockInit}); err != nil {
				return err
			}
			count, err = e.Declare(ctx, core.Decl{Name: "COUNT", Domain: dom, Dynamic: true, ConnectTo: "FIELD"})
			return err
		}); err != nil {
			return err
		}
		p.call(ctx, spFill, func() error {
			count.FillFunc(ctx, func(index.Point) float64 { return float64(pp.initPerCell) })
			field.FillFunc(ctx, func(index.Point) float64 { return 0 })
			return nil
		})
		if err := p.barrier(ctx); err != nil {
			return err
		}
		if o.census && ctx.Rank() == 0 {
			res.chain = append(res.chain, field.Dist())
		}
		gather := func(a *core.Array) (out []float64, err error) {
			err = p.call(ctx, spColl, func() error {
				out, err = a.GatherTo(ctx, 0)
				return err
			})
			return out, err
		}
		balance := func() error {
			counts, err := gather(count)
			if err != nil {
				return err
			}
			var bounds []int
			if ctx.Rank() == 0 {
				bounds = picBounds(counts, ctx.NP())
			}
			if err := p.call(ctx, spColl, func() (err error) {
				bounds, err = ctx.Comm().BcastInts(0, bounds)
				return err
			}); err != nil {
				return err
			}
			typ := dist.NewType(dist.BBlockDim(bounds...))
			if err := p.plan(ctx, seen, e, field, typ); err != nil {
				return err
			}
			if err := p.call(ctx, spDistribute, func() error {
				return e.Distribute(ctx, []*core.Array{field}, core.DimsOf(typ.Dims...))
			}); err != nil {
				return err
			}
			if o.census && ctx.Rank() == 0 {
				res.chain = append(res.chain, field.Dist())
			}
			if err := p.barrier(ctx); err != nil {
				return err
			}
			return p.barrier(ctx)
		}
		imbalance := func() (float64, error) {
			local := 0.0
			count.Local(ctx).ForEachOwned(func(_ index.Point, v *float64) { local += *v })
			var tot, mx []float64
			err := p.call(ctx, spColl, func() (err error) {
				if tot, err = ctx.Comm().AllreduceF64([]float64{local}, msg.SumF64); err != nil {
					return err
				}
				mx, err = ctx.Comm().AllreduceF64([]float64{local}, msg.MaxF64)
				return err
			})
			if err != nil {
				return 0, err
			}
			avg := tot[0] / float64(ctx.NP())
			if avg == 0 {
				return 1, nil
			}
			return mx[0] / avg, nil
		}
		if err := balance(); err != nil {
			return err
		}
		startCounts, err := gather(count)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			res.particlesStart = sumOf(startCounts)
		}
		for k := 1; k <= pp.steps; k++ {
			lc, lf := count.Local(ctx), field.Local(ctx)
			particles := 0.0
			p.kernel(ctx, func() {
				lc.ForEachOwned(func(pt index.Point, v *float64) {
					n := int(*v)
					particles += *v
					acc := lf.At(pt)
					for w := 0; w < n*pp.workPerParticle; w++ {
						acc += 1e-9 * float64(w%7)
					}
					lf.SetAt(pt, acc+*v)
				})
			})
			if err := p.barrier(ctx); err != nil {
				return err
			}
			if err := picDrift(ctx, p, count, pp.drift); err != nil {
				return err
			}
			imb, err := imbalance()
			if err != nil {
				return err
			}
			if ctx.Rank() == 0 {
				particleSteps += res.particlesStart
			}
			if k%pp.every == 0 && imb > pp.threshold {
				if err := balance(); err != nil {
					return err
				}
			}
		}
		if _, err := gather(count); err != nil {
			return err
		}
		fields, err := gather(field)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			res.checksum = sumOf(fields)
			fh, fm := field.DArray().ScheduleCacheStats()
			ch, cm := count.DArray().ScheduleCacheStats()
			res.hits, res.misses = fh+ch, fm+cm
			res.finalEpoch = ctx.Epoch()
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	p.finish(&res, m, start)
	res.points = particleSteps
	// Per cell and step the update reads COUNT and reads and writes FIELD.
	res.computedBytes = 24 * float64(pp.ncell*pp.steps)
	return res, nil
}

// picDrift is apps' update_part: a fraction of every cell's particles
// moves one cell right, the last cell reflecting; the boundary flow goes
// point-to-point to the next cell's owner.
func picDrift(ctx *machine.Ctx, p *probe, count *core.Array, frac float64) error {
	l := count.Local(ctx)
	d := count.Dist()
	n := count.Domain().Extent(0)
	rs := l.Grid().Dims[0]
	ep := ctx.Endpoint()
	const tag = 9100
	var outflow float64
	lastIdx := -1
	p.kernel(ctx, func() {
		if rs.Count() == 0 {
			return
		}
		lo, hi := rs[0].Lo, rs[len(rs)-1].Hi
		for i := hi; i >= lo; i-- {
			pt := index.Point{i}
			c := l.At(pt)
			mv := float64(int(c * frac))
			if i == n {
				continue
			}
			l.SetAt(pt, c-mv)
			if i == hi {
				outflow = mv
				lastIdx = i
			} else {
				q := index.Point{i + 1}
				l.SetAt(q, l.At(q)+mv)
			}
		}
	})
	sendTo := -1
	if lastIdx >= 0 && lastIdx < n {
		sendTo = d.Owner(index.Point{lastIdx + 1})
	}
	recvFrom := -1
	if rs.Count() > 0 && rs[0].Lo > 1 {
		recvFrom = d.Owner(index.Point{rs[0].Lo - 1})
	}
	cfg := ctx.Comm().Config()
	if sendTo >= 0 && sendTo != ctx.Rank() {
		if err := p.call(ctx, spP2P, func() error {
			return msg.SendRetry(ep, cfg, nil, "pic-drift", sendTo, tag, msg.EncodeFloat64s([]float64{outflow, float64(lastIdx + 1)}))
		}); err != nil {
			return err
		}
	} else if sendTo == ctx.Rank() {
		q := index.Point{lastIdx + 1}
		l.SetAt(q, l.At(q)+outflow)
	}
	if recvFrom >= 0 && recvFrom != ctx.Rank() {
		var pkt msg.Packet
		if err := p.call(ctx, spP2P, func() (err error) {
			pkt, err = msg.RecvRetry(ep, cfg, nil, "pic-drift", recvFrom, tag)
			return err
		}); err != nil {
			return err
		}
		vals := msg.DecodeFloat64s(pkt.Data)
		q := index.Point{int(vals[1])}
		l.SetAt(q, l.At(q)+vals[0])
	}
	return p.barrier(ctx)
}

// picBounds is apps' balance(): B_BLOCK bounds giving each processor
// about total/np particles.
func picBounds(counts []float64, np int) []int {
	per := sumOf(counts) / float64(np)
	bounds := make([]int, np)
	acc := 0.0
	p := 0
	for i, c := range counts {
		acc += c
		if acc >= per*float64(p+1) && p < np-1 {
			bounds[p] = i + 1
			p++
		}
	}
	for ; p < np; p++ {
		bounds[p] = len(counts)
	}
	prev := 0
	for i := range bounds {
		if bounds[i] < prev {
			bounds[i] = prev
		}
		prev = bounds[i]
	}
	bounds[np-1] = len(counts)
	return bounds
}

func sumOf(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// --- smoothing (claim C1) with an elastic join and checkpoints ----------

type smoothParams struct {
	n, steps, np, join, joinAfter, ckptEvery, servers int
	commTimeout                                       time.Duration
	commRetries                                       int
}

func smoothInitial(p index.Point) float64 { return float64((p[0]*13+p[1]*7)%11) * 0.25 }

var errGrow = errors.New("perfbench: grow onto pending joiner")

func driveSmooth(sp smoothParams, o driverOpts) (driverResult, error) {
	start := time.Now()
	capacity := sp.np + sp.join
	mopts := append(machineOpts(o, capacity),
		machine.WithCommConfig(msg.CommConfig{
			Timeout: sp.commTimeout, Retries: sp.commRetries, Backoff: time.Millisecond,
			MaxTimeout: 4 * sp.commTimeout, MaxBackoff: 16 * time.Millisecond,
		}),
		machine.WithLiveness(machine.LivenessConfig{}),
		machine.WithReserve(sp.join))
	m := machine.New(sp.np, mopts...)
	defer m.Close()
	res := driverResult{pario: &pario.Metrics{}}
	ckptOpts := ckpt.Options{Servers: sp.servers, Redundancy: pario.RedundancyParity, IO: pario.Config{Metrics: res.pario}}
	e := core.NewEngine(m)
	e.SetCkptOptions(ckptOpts)
	p := newProbe(m, o, capacity)
	dom := index.Dim(sp.n, sp.n)
	var points float64
	var pointsMu sync.Mutex
	err := m.Run(func(ctx *machine.Ctx) error {
		rank := ctx.PhysRank()
		p.rec.begin(rank, rootName)
		defer p.rec.end(rank)
		myPoints := 0
		defer func() {
			pointsMu.Lock()
			points += float64(myPoints)
			pointsMu.Unlock()
		}()
		body := func(eng *core.Engine, online bool) error {
			var u, v *core.Array
			spec := core.DistSpec{Type: colsType()}
			if err := p.call(ctx, spDeclare, func() (err error) {
				if u, err = eng.Declare(ctx, core.Decl{Name: "U", Domain: dom, Dynamic: true, Init: &spec, Ghost: []int{1, 1}}); err != nil {
					return err
				}
				v, err = eng.Declare(ctx, core.Decl{Name: "V", Domain: dom, Dynamic: true, ConnectTo: "U", Ghost: []int{1, 1}})
				return err
			}); err != nil {
				return err
			}
			s0 := 0
			if online {
				var man *ckpt.Manifest
				if err := p.call(ctx, spRestore, func() (err error) {
					man, err = eng.Recover(ctx, o.ckptDir)
					return err
				}); err != nil {
					return err
				}
				if step, ok := man.MetaInt("step"); ok {
					s0 = step + 1
				}
			} else {
				p.call(ctx, spFill, func() error { u.FillFunc(ctx, smoothInitial); return nil })
			}
			if err := p.barrier(ctx); err != nil {
				return err
			}
			save := func(s int) error {
				if o.census && ctx.Rank() == 0 {
					if d := u.Dist(); len(res.ckptDists) == 0 || !res.ckptDists[len(res.ckptDists)-1].Equal(d) {
						res.ckptDists = append(res.ckptDists, d)
					}
				}
				return p.call(ctx, spSave, func() error {
					_, err := eng.Checkpoint(ctx, o.ckptDir, map[string]string{"step": fmt.Sprint(s)})
					return err
				})
			}
			src, dst := u, v
			if s0%2 == 1 {
				src, dst = v, u
			}
			for s := s0; s < sp.steps; s++ {
				// apps ignores these barriers' errors; so does the mirror.
				p.barrier(ctx)
				var h *darray.GhostHandle
				if err := p.call(ctx, spGhost, func() (err error) {
					h, err = src.StartExchangeAllGhosts(ctx)
					return err
				}); err != nil {
					return err
				}
				if err := p.call(ctx, spGhostWait, h.Wait); err != nil {
					return err
				}
				p.barrier(ctx)
				p.kernel(ctx, func() { myPoints += smoothLocal(ctx, src, dst) })
				p.barrier(ctx)
				src, dst = dst, src
				if (s+1)%sp.ckptEvery == 0 {
					if err := save(s); err != nil {
						return err
					}
				}
				if s+1 >= sp.joinAfter && s+1 < sp.steps {
					var grow bool
					if err := p.call(ctx, spPollJoin, func() (err error) {
						grow, err = ctx.PollJoin()
						return err
					}); err != nil {
						return err
					}
					if grow {
						if err := save(s); err != nil {
							return err
						}
						return errGrow
					}
				}
			}
			var sum float64
			if err := p.call(ctx, spColl, func() (err error) {
				sum, err = src.DArray().ReduceSum(ctx)
				return err
			}); err != nil {
				return err
			}
			if ctx.Rank() == 0 {
				res.checksum = sum
				res.finalEpoch = ctx.Epoch()
			}
			return nil
		}
		// apps.runWithOnlineRecovery, reduced to the join transition this
		// workload takes: the reserved rank parks in AwaitJoin; a body that
		// returns errGrow admits it, and every rank re-enters the body on a
		// fresh engine that replays the checkpoint onto the grown view.
		fresh := func() *core.Engine {
			eng := ctx.CollectiveOnce(func() any { return core.NewEngine(m) }).(*core.Engine)
			eng.SetCkptOptions(ckptOpts)
			return eng
		}
		eng, online := e, false
		if ctx.Reserved() {
			if err := p.call(ctx, spAwaitJoin, ctx.AwaitJoin); err != nil {
				return err
			}
			eng, online = fresh(), true
		}
		for {
			err := body(eng, online)
			if !errors.Is(err, errGrow) {
				return err
			}
			if err := p.call(ctx, spAdmit, ctx.Admit); err != nil {
				return err
			}
			eng, online = fresh(), true
		}
	})
	if err != nil {
		return res, err
	}
	p.finish(&res, m, start)
	res.points = points
	res.computedBytes = 16 * points
	return res, nil
}

// smoothLocal is apps' synchronous stencil step on the owned points.
func smoothLocal(ctx *machine.Ctx, src, dst *core.Array) int {
	ls, ld := src.Local(ctx), dst.Local(ctx)
	dom := src.Domain()
	n0, n1 := dom.Hi[0], dom.Hi[1]
	lo, hi, ok := ls.Segment()
	if !ok || ls.Count() == 0 {
		return 0
	}
	strd := ls.Stride()
	return smoothRect(ld.Data(), ls.Data(), ls.Offset(index.Point{lo[0], lo[1]}), strd[1],
		lo[0], hi[0], lo[1], hi[1], n0, n1)
}

func smoothRect(dd, sd []float64, rowOff, s1, i0, i1, j0, j1, n0, n1 int) int {
	w := i1 - i0 + 1
	cnt := 0
	for j := j0; j <= j1; j, rowOff = j+1, rowOff+s1 {
		if j == 1 || j == n1 {
			copy(dd[rowOff:rowOff+w], sd[rowOff:rowOff+w])
			continue
		}
		off, a, b := rowOff, i0, i1
		if a == 1 {
			dd[off] = sd[off]
			a++
			off++
		}
		if b == n0 {
			dd[rowOff+w-1] = sd[rowOff+w-1]
			b--
		}
		if n := b - a + 1; n > 0 {
			kernels.SmoothRow(dd, sd, off, n, s1)
			cnt += n
		}
	}
	return cnt
}

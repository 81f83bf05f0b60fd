// Package apps contains the paper's application studies (§4) as
// parameterized, metric-reporting harnesses shared by the examples, the
// benchmarks in bench_test.go, and cmd/vfbench:
//
//   - ADI (Figure 1, claim C2): dynamic redistribution between sweeps vs
//     a static distribution with a pipelined distributed tridiagonal
//     solve;
//   - PIC (Figure 2, claim C3): B_BLOCK load balancing vs static BLOCK;
//   - grid smoothing (claim C1): column vs 2-D block distribution and the
//     N/p crossover;
//   - redistribution microcosts (claim C4).
package apps

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/health"
	"repro/internal/index"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/scale"
	"repro/internal/trace"
)

// ADIMode selects the distribution strategy of the ADI run.
type ADIMode int

// ADI strategies.
const (
	// ADIDynamic is Figure 1: V is DYNAMIC, distributed (:,BLOCK) for the
	// x-sweep and redistributed to (BLOCK,:) for the y-sweep each
	// iteration.  All communication is confined to the two DISTRIBUTE
	// statements.
	ADIDynamic ADIMode = iota
	// ADIStaticCols keeps V statically distributed (:,BLOCK): the x-sweep
	// is local, the y-sweep runs a pipelined distributed Thomas solve —
	// the communication "the compiler must embed" per §4.
	ADIStaticCols
	// ADIStaticRows keeps V statically distributed (BLOCK,:): the y-sweep
	// is local, the x-sweep is pipelined.
	ADIStaticRows
)

func (m ADIMode) String() string {
	switch m {
	case ADIDynamic:
		return "dynamic"
	case ADIStaticCols:
		return "static(:,BLOCK)"
	case ADIStaticRows:
		return "static(BLOCK,:)"
	}
	return "?"
}

// ADIConfig parameterizes an ADI run.
type ADIConfig struct {
	NX, NY int
	Iters  int
	P      int
	Mode   ADIMode
	// ChunkRows batches pipeline messages in the static modes (default 8).
	ChunkRows int
	// Alpha/Beta attach a Hockney cost model when non-zero.
	Alpha, Beta float64
	// FlopTime charges modeled compute per element-update (default 2ns).
	FlopTime float64
	// Validate compares the final grid against the serial reference.
	Validate bool
	// UseTCP runs the machine over the TCP loopback transport instead of
	// the in-process one (same semantics, real sockets).
	UseTCP bool
	// Tracer, when non-nil, records the run's spans and messages (the
	// iteration loop is annotated as the "iterate" phase).
	Tracer *trace.Tracer
	// Fault, when non-empty, wraps the transport in a fault-injecting
	// decorator built from msg.ParseFaultPlan (the vfbench -fault flag).
	Fault string
	// CommTimeout/CommRetries install a deadline/retry policy on the
	// collectives so injected faults surface as errors instead of hangs.
	// The escalated per-receive deadline is capped at 4×CommTimeout.
	CommTimeout time.Duration
	CommRetries int
	// CkptDir enables coordinated checkpoints: after every CkptEvery-th
	// completed iteration the grid and its distribution descriptor are
	// written to this directory (see internal/ckpt).
	CkptDir string
	// CkptEvery is the checkpoint period in iterations (default 1 when
	// CkptDir is set).
	CkptEvery int
	// IO selects the parallel-I/O options (striping, redundancy,
	// retention, disk-fault injection) for the checkpoints.
	IO IOConfig
	// Recover resumes from the latest committed checkpoint in CkptDir
	// instead of the initial grid: the recorded distribution is replayed
	// onto this run's P processors (shrunken if fewer survive) and the
	// iteration counter restarts after the checkpointed iteration.
	Recover bool
	// Liveness, when non-nil, runs the heartbeat failure detector so a
	// run killed by a permanent rank loss can report its survivors.
	Liveness *machine.LivenessConfig
	// OnlineRecover enables in-process failure recovery: when a rank
	// dies mid-run, the survivors Regroup onto the next membership
	// epoch, replay the last committed checkpoint from CkptDir onto the
	// shrunken processor view, and resume the iteration without leaving
	// Run.  Requires CkptDir, Liveness, and a CommTimeout.
	OnlineRecover bool
	// Integrity appends a CRC32C trailer to every wire message, turning
	// silent payload corruption into the named msg.ErrIntegrity
	// transport error.  Implied when Fault has a corrupt/bitflip rule.
	Integrity bool
	// Join reserves this many extra ranks beyond P; they park in
	// AwaitJoin and are admitted mid-run when Elastic is set (see
	// machine.WithReserve).  Requires Liveness and a CommTimeout.
	Join int
	// Elastic lets the active members poll for pending joiners at every
	// iteration boundary at or after JoinAfterIter; on a hit they
	// checkpoint, admit the joiner into the next membership epoch, and
	// replay onto the grown view.  Requires CkptDir and Join > 0.
	Elastic bool
	// JoinAfterIter is the first iteration boundary at which the members
	// poll for joiners (0 = poll from the first).
	JoinAfterIter int
	// MemBudget bounds each rank's peak resident wire bytes during
	// redistributions (Engine.SetMemBudget), surviving every recovery
	// and expansion transition.  <= 0 means unbounded.
	MemBudget int64
	// Straggler configures the rank-health scorer, an optional injected
	// slow rank, and the mitigation policy (observe, rebalance the block
	// bounds by measured speed, or drain the straggler).  Mitigation
	// requires ADIDynamic — the static modes cannot re-divide their
	// distribution.
	Straggler StragglerConfig
}

// ADIResult reports an ADI run.
type ADIResult struct {
	Mode        ADIMode
	Wall        time.Duration
	Msgs, Bytes int64
	SweepMsgs   int64 // messages during sweeps (static pipeline traffic)
	RedistMsgs  int64 // messages during DISTRIBUTE (dynamic traffic)
	RedistBytes int64
	ModelTime   float64 // modeled makespan in seconds (0 without model)
	MaxErr      float64 // vs serial reference (when validated)
	Checksum    float64
	CacheHits   int
	CacheMisses int
	// Survivors is the failure detector's surviving rank set, populated
	// (even when Run errors) if Liveness was configured — the processor
	// count a recovery run should use.
	Survivors []int
	// ResumedIter is the checkpointed iteration a Recover run resumed
	// after, or -1 for a fresh start.
	ResumedIter int
	// Epochs counts the checkpoint epochs this run committed.
	Epochs int
	// FinalEpoch is the membership epoch the run completed on: 0 for a
	// failure-free run, >0 after in-process online recovery.
	FinalEpoch int
	// PeakWireBytes is the highest per-rank resident wire-buffer
	// residency any redistribution reached — the quantity MemBudget
	// bounds.
	PeakWireBytes int64
	// DegradedRank is the first physical rank the health scorer ever
	// classified Degraded (-1: none, or scoring off).
	DegradedRank int
	// Mitigation is the straggler mitigation that fired ("rebalance",
	// "drain", or empty).
	Mitigation string
	// Drained lists the physical ranks voluntarily drained from the
	// membership by the straggler policy.
	Drained []int
	// Health is the scorer's final per-rank report (nil with scoring
	// off) — class, slowdown vs the median, and observation count.
	Health []health.RankReport
}

const (
	adiA, adiB, adiC = -1.0, 4.0, -1.0
)

func colsType() dist.Type { return dist.NewType(dist.ElidedDim(), dist.BlockDim()) }
func rowsType() dist.Type { return dist.NewType(dist.BlockDim(), dist.ElidedDim()) }

// RunADI executes the Figure 1 iteration under the chosen strategy and
// reports traffic, modeled and measured time, and (optionally) the
// deviation from the serial reference.
func RunADI(cfg ADIConfig) (ADIResult, error) {
	if cfg.ChunkRows <= 0 {
		cfg.ChunkRows = 8
	}
	if cfg.FlopTime == 0 {
		cfg.FlopTime = 2e-9
	}
	// Reserved joiners share the cost model, transport, and detector, so
	// every physical-rank-indexed structure is sized to the capacity.
	total := cfg.P + cfg.Join
	if cfg.NX < total || cfg.NY < total {
		return ADIResult{}, fmt.Errorf("apps: ADI needs NX,NY >= P+Join (%dx%d on %d)", cfg.NX, cfg.NY, total)
	}
	if cfg.Elastic && (cfg.Join <= 0 || cfg.CkptDir == "") {
		return ADIResult{}, fmt.Errorf("apps: Elastic requires Join > 0 and a CkptDir")
	}
	if err := cfg.Straggler.validate(cfg.Liveness != nil, cfg.CommTimeout, cfg.CkptDir); err != nil {
		return ADIResult{}, err
	}
	if cfg.Straggler.mitigating() && cfg.Mode != ADIDynamic {
		return ADIResult{}, fmt.Errorf("apps: straggler mitigation requires the dynamic ADI mode (static distributions cannot be re-divided)")
	}
	var mopts []machine.Option
	var cm *msg.CostModel
	var topts []msg.Option
	if cfg.Alpha != 0 || cfg.Beta != 0 {
		cm = msg.NewCostModel(total, cfg.Alpha, cfg.Beta)
		mopts = append(mopts, machine.WithCostModel(cm))
		topts = append(topts, msg.WithCost(cm))
	}
	if cfg.Tracer != nil {
		mopts = append(mopts, machine.WithTrace(cfg.Tracer))
		topts = append(topts, msg.WithTracer(cfg.Tracer))
	}
	base, err := assembleTransport(total, cfg.UseTCP, cfg.Fault, cfg.Integrity, topts)
	if err != nil {
		return ADIResult{Mode: cfg.Mode}, err
	}
	if base != nil {
		mopts = append(mopts, machine.WithTransport(base))
	}
	if cfg.CommTimeout > 0 || cfg.CommRetries > 0 {
		mopts = append(mopts, machine.WithCommConfig(msg.CommConfig{
			Timeout: cfg.CommTimeout, Retries: cfg.CommRetries, Backoff: time.Millisecond,
			MaxTimeout: 4 * cfg.CommTimeout, MaxBackoff: 16 * time.Millisecond,
		}))
	}
	if cfg.Liveness != nil {
		mopts = append(mopts, machine.WithLiveness(*cfg.Liveness))
	}
	if cfg.Straggler.Enabled() {
		mopts = append(mopts, machine.WithHealth(cfg.Straggler.healthConfig()))
	}
	if cfg.CkptDir != "" && cfg.CkptEvery <= 0 {
		cfg.CkptEvery = 1
	}
	if cfg.Join > 0 {
		mopts = append(mopts, machine.WithReserve(cfg.Join))
	}
	m := machine.New(cfg.P, mopts...)
	defer m.Close()
	e := core.NewEngine(m)
	e.SetMemBudget(cfg.MemBudget)
	e.SetCkptOptions(cfg.IO.options())
	res := ADIResult{Mode: cfg.Mode, ResumedIter: -1, DegradedRank: -1}

	dom := index.Dim(cfg.NX, cfg.NY)
	initial := func(p index.Point) float64 {
		return float64((p[0]*31+p[1]*17)%13) - 6.0
	}

	// serial reference
	var ref []float64
	if cfg.Validate {
		ref = make([]float64, dom.Size())
		dom.WholeSection().ForEach(func(p index.Point) bool {
			ref[dom.Offset(p)] = initial(p)
			return true
		})
		kernels.SerialADI(ref, cfg.NX, cfg.NY, cfg.Iters, adiA, adiB, adiC)
	}

	// The whole-line factorization is shared read-only by every rank and
	// both local sweeps (a line of n elements uses its first n entries).
	fac := kernels.NewFactor(max(cfg.NX, cfg.NY), adiA, adiB, adiC)
	var sweepMsgs, redistMsgs, redistBytes int64
	var finalErr, checksum float64
	var hits, misses int
	var resumedIter = -1
	var nEpochs, finalEpoch int
	var mitigation string
	var drainedPhys []int
	start := time.Now()
	err = m.Run(func(ctx *machine.Ctx) error {
		// Per-goroutine straggler state, persisting across body re-entries:
		// a rebalance installs weighted B_BLOCK bounds for the remaining
		// redistributions; mitigated makes the policy one-shot per run.
		var rowBounds, colBounds []int
		mitigated := false
		var seg kernels.Factor // this rank's pipelined-sweep segment factorization
		body := func(eng *core.Engine, online bool) error {
			if colBounds != nil && len(colBounds) != ctx.NP() {
				// A membership transition changed the view size since the
				// bounds were computed: fall back to the even block split.
				rowBounds, colBounds = nil, nil
			}
			colsTarget := func() core.Expr {
				if colBounds != nil {
					return core.DimsOf(dist.ElidedDim(), dist.BBlockDim(colBounds...))
				}
				return core.DimsOf(dist.ElidedDim(), dist.BlockDim())
			}
			rowsTarget := func() core.Expr {
				if rowBounds != nil {
					return core.DimsOf(dist.BBlockDim(rowBounds...), dist.ElidedDim())
				}
				return core.DimsOf(dist.BlockDim(), dist.ElidedDim())
			}
			colsDist := core.DistSpec{Type: colsType()}
			rowsDist := core.DistSpec{Type: rowsType()}
			var v *core.Array
			switch cfg.Mode {
			case ADIDynamic:
				v = eng.MustDeclare(ctx, core.Decl{Name: "V", Domain: dom, Dynamic: true, Init: &colsDist})
			case ADIStaticCols:
				v = eng.MustDeclare(ctx, core.Decl{Name: "V", Domain: dom, Static: &colsDist})
			case ADIStaticRows:
				v = eng.MustDeclare(ctx, core.Decl{Name: "V", Domain: dom, Static: &rowsDist})
			}
			// A fresh run starts from the analytic initial grid; a recovery
			// run replays the last committed checkpoint — values and
			// distribution descriptor — onto this (possibly smaller) machine
			// and resumes after the checkpointed iteration.  An online
			// recovery attempt does the same in-process, over the regrouped
			// survivor view.
			it0 := 0
			switch {
			case online:
				man, err := eng.Recover(ctx, cfg.CkptDir)
				if err != nil {
					return err
				}
				if iter, ok := man.MetaInt("iter"); ok {
					it0 = iter + 1
				}
				if ctx.Rank() == 0 {
					resumedIter = it0 - 1
				}
			case cfg.Recover:
				man, err := eng.Restore(ctx, cfg.CkptDir)
				if err != nil {
					return err
				}
				if iter, ok := man.MetaInt("iter"); ok {
					it0 = iter + 1
				}
				if ctx.Rank() == 0 {
					resumedIter = it0 - 1
				}
			default:
				v.FillFunc(ctx, initial)
			}
			if err := ctx.Barrier(); err != nil {
				return err
			}

			// account runs a phase and, after the trailing barrier, adds its
			// rank-0-observed global traffic delta to the given counters.
			account := func(phase func() error, msgs, bytes *int64) error {
				pre := m.Stats().Snapshot()
				if err := ctx.Barrier(); err != nil { // no rank may send before pre is taken
					return err
				}
				if err := phase(); err != nil {
					return err
				}
				if err := ctx.Barrier(); err != nil {
					return err
				}
				if ctx.Rank() == 0 {
					d := m.Stats().Snapshot().Sub(pre)
					*msgs += d.TotalDataMsgs()
					if bytes != nil {
						*bytes += d.TotalBytes()
					}
				}
				return nil
			}

			ctx.PhaseBegin("iterate")
			for it := it0; it < cfg.Iters; it++ {
				var err error
				iterT0 := time.Now()
				switch cfg.Mode {
				case ADIDynamic:
					if it > 0 {
						err = account(func() error {
							return eng.Distribute(ctx, []*core.Array{v}, colsTarget())
						}, &redistMsgs, &redistBytes)
						if err != nil {
							return err
						}
					}
					// Compute sections run under timed: injected slowdown is
					// applied and the busy time reported to the health scorer
					// (barrier/communication waits deliberately excluded).
					el0 := cfg.Straggler.timed(ctx, func() { localSweep(ctx, v, 0, fac, cfg.FlopTime) })
					units := localElems(ctx, v)
					if err = ctx.Barrier(); err != nil {
						return err
					}
					err = account(func() error {
						return eng.Distribute(ctx, []*core.Array{v}, rowsTarget())
					}, &redistMsgs, &redistBytes)
					if err != nil {
						return err
					}
					el1 := cfg.Straggler.timed(ctx, func() { localSweep(ctx, v, 1, fac, cfg.FlopTime) })
					units += localElems(ctx, v)
					if err = ctx.Barrier(); err != nil {
						return err
					}
					if cfg.Straggler.Enabled() {
						ctx.ReportWork(units, el0+el1)
					}
				case ADIStaticCols:
					el := cfg.Straggler.timed(ctx, func() { localSweep(ctx, v, 0, fac, cfg.FlopTime) })
					if cfg.Straggler.Enabled() {
						ctx.ReportWork(localElems(ctx, v), el)
					}
					if err = ctx.Barrier(); err != nil {
						return err
					}
					err = account(func() error { return pipelinedSweep(ctx, v, 1, cfg.ChunkRows, &seg, cfg.FlopTime) }, &sweepMsgs, nil)
					if err != nil {
						return err
					}
				case ADIStaticRows:
					err = account(func() error { return pipelinedSweep(ctx, v, 0, cfg.ChunkRows, &seg, cfg.FlopTime) }, &sweepMsgs, nil)
					if err != nil {
						return err
					}
					el := cfg.Straggler.timed(ctx, func() { localSweep(ctx, v, 1, fac, cfg.FlopTime) })
					if cfg.Straggler.Enabled() {
						ctx.ReportWork(localElems(ctx, v), el)
					}
					if err = ctx.Barrier(); err != nil {
						return err
					}
				}
				if cfg.CkptDir != "" && (it+1)%cfg.CkptEvery == 0 {
					if _, err := eng.CheckpointIter(ctx, cfg.CkptDir, it); err != nil {
						return err
					}
					if ctx.Rank() == 0 {
						nEpochs++
					}
				}
				// Elastic scale-out: every member takes the same agreed
				// poll at the iteration boundary; on a pending joiner the
				// body checkpoints here and bails out so the recovery
				// driver can Admit it and replay onto the grown view.
				if cfg.Elastic && it+1 >= cfg.JoinAfterIter && it+1 < cfg.Iters {
					grow, gerr := ctx.PollJoin()
					if gerr != nil {
						return gerr
					}
					if grow {
						if _, err := eng.CheckpointIter(ctx, cfg.CkptDir, it); err != nil {
							return err
						}
						return errGrow
					}
				}
				// Straggler defense: the members take one agreed mitigation
				// decision per boundary once the scorer has had a chance to
				// classify.  A rebalance installs weighted bounds for the
				// remaining redistributions; a drain checkpoints and leaves
				// the body so the recovery driver can shrink the membership.
				if cfg.Straggler.mitigating() && !mitigated && it+1 >= cfg.Straggler.checkAfter() && it+1 < cfg.Iters {
					dec, view, speeds, derr := decideStraggler(ctx, m, cfg.Straggler, cfg.Iters-(it+1), time.Since(iterT0))
					if derr != nil {
						return derr
					}
					switch dec {
					case scale.Rebalance:
						mitigated = true
						rowBounds = scale.WeightedBounds(cfg.NX, speeds)
						colBounds = scale.WeightedBounds(cfg.NY, speeds)
						if ctx.Rank() == 0 {
							mitigation = "rebalance"
						}
					case scale.Drain:
						mitigated = true
						if _, err := eng.CheckpointIter(ctx, cfg.CkptDir, it); err != nil {
							return err
						}
						if ctx.Rank() == 0 {
							mitigation = "drain"
							drainedPhys = append(drainedPhys, ctx.PhysOf(view))
						}
						return &drainError{viewRank: view}
					}
				}
			}
			ctx.PhaseEnd("iterate")

			if cfg.Validate {
				got, err := v.GatherTo(ctx, 0)
				if err != nil {
					return err
				}
				if ctx.Rank() == 0 {
					for i, x := range got {
						checksum += x
						d := x - ref[i]
						if d < 0 {
							d = -d
						}
						if d > finalErr {
							finalErr = d
						}
					}
				}
			} else {
				s, err := v.DArray().ReduceSum(ctx)
				if err != nil {
					return err
				}
				if ctx.Rank() == 0 {
					checksum = s
				}
			}
			if ctx.Rank() == 0 {
				hits, misses = v.DArray().ScheduleCacheStats()
				finalEpoch = ctx.Epoch()
			}
			return nil
		}
		return runWithOnlineRecovery(ctx, m, e, cfg.OnlineRecover && cfg.CkptDir != "", max(cfg.P, 2), cfg.MemBudget, body)
	})
	res.Survivors = m.Survivors()
	res.DegradedRank = degradedRank(m)
	res.Health = healthReport(m)
	res.Mitigation = mitigation
	res.Drained = drainedPhys
	if err != nil {
		return res, err
	}
	res.Wall = time.Since(start)
	res.ResumedIter = resumedIter
	res.Epochs = nEpochs
	res.FinalEpoch = finalEpoch
	sn := m.Stats().Snapshot()
	res.Msgs, res.Bytes = sn.TotalDataMsgs(), sn.TotalBytes()
	res.PeakWireBytes = m.Stats().PeakWireBytes()
	res.SweepMsgs, res.RedistMsgs, res.RedistBytes = sweepMsgs, redistMsgs, redistBytes
	if cm != nil {
		res.ModelTime = cm.Makespan()
	}
	res.MaxErr = finalErr
	res.Checksum = checksum
	res.CacheHits, res.CacheMisses = hits, misses
	return res, nil
}

// localSweep solves the tridiagonal systems along dimension dim in one
// batched call; every line must be fully local (dim elided in the current
// distribution).  fac is the run's whole-line factorization, of order at
// least the line length.
func localSweep(ctx *machine.Ctx, v *core.Array, dim int, fac *kernels.Factor, flopTime float64) {
	l := v.Local(ctx)
	alloc, strd := l.AllocShape(), l.Stride()
	other := 1 - dim
	kernels.TridiagLines(l.Data(), 0, strd[dim], alloc[dim], strd[other], alloc[other], fac)
	ctx.Charge(flopTime * float64(5*alloc[dim]*alloc[other]))
}

// pipelinedSweep solves the tridiagonal systems along a BLOCK-distributed
// dimension dim: each processor eliminates its segment of every line and
// forwards per-line pipeline state (b', d') to the next processor in
// chunks, then back-substitutes in the reverse direction.  This is the
// communication pattern a compiler must generate for the static ADI
// (paper §4).  Every line's segment starts at the same global row, so all
// lines share one upstream b' and one segment factorization: seg caches
// it across chunks and iterations, and each chunk runs as one batched
// kernel call.  Transport failures are returned as wrapped errors (under
// the machine's CommConfig the pipeline receives run with deadlines).
func pipelinedSweep(ctx *machine.Ctx, v *core.Array, dim int, chunk int, seg *kernels.Factor, flopTime float64) error {
	l := v.Local(ctx)
	rank, np := ctx.Rank(), ctx.NP()
	alloc := l.AllocShape()
	other := 1 - dim
	strd := l.Stride()
	segN := alloc[dim]    // my extent along the recurrence dimension
	lines := alloc[other] // number of independent systems (all local)
	if lines == 0 {
		return nil
	}
	data := l.Data()
	ep := ctx.Endpoint()
	cfg := ctx.Comm().Config()
	tr := ctx.Tracer()
	const fwdTag, bwdTag = 9001, 9002

	prev, next := rank-1, rank+1
	fin, fout := make([]kernels.SweepState, chunk), make([]kernels.SweepState, chunk)
	bin, bout := make([]kernels.BackState, chunk), make([]kernels.BackState, chunk)

	// forward elimination, pipelined in chunks of lines
	var up kernels.SweepState // the upstream state seg was factored for
	for c0 := 0; c0 < lines; c0 += chunk {
		k := min(chunk, lines-c0)
		in, out := fin[:k], fout[:k]
		if prev >= 0 {
			p, err := msg.RecvRetry(ep, cfg, tr, "pipelined-sweep", prev, fwdTag)
			if err != nil {
				return fmt.Errorf("apps: ADI forward sweep at rank %d: %w", rank, err)
			}
			vals := msg.DecodeFloat64s(p.Data)
			if len(vals) != 2*k {
				return fmt.Errorf("apps: ADI forward sweep at rank %d: %d values for %d lines", rank, len(vals), k)
			}
			if c0 == 0 {
				up = kernels.SweepState{BP: vals[0], Valid: true}
			}
			for j := range in {
				if math.Float64bits(vals[2*j]) != math.Float64bits(up.BP) {
					return fmt.Errorf("apps: ADI forward sweep at rank %d: line %d arrives with b' %v, not the shared %v", rank, c0+j, vals[2*j], up.BP)
				}
				in[j] = kernels.SweepState{BP: vals[2*j], D: vals[2*j+1], Valid: true}
			}
		}
		seg.Reset(segN, adiA, adiB, adiC, up)
		kernels.ForwardSegmentLines(data, c0*strd[other], strd[dim], segN, strd[other], k, seg, in, out)
		ctx.Charge(flopTime * float64(5*segN*k))
		if next < np {
			vals := make([]float64, 0, 2*k)
			for _, st := range out {
				vals = append(vals, st.BP, st.D)
			}
			if err := msg.SendRetry(ep, cfg, tr, "pipelined-sweep", next, fwdTag, msg.EncodeFloat64s(vals)); err != nil {
				return fmt.Errorf("apps: ADI forward sweep at rank %d: %w", rank, err)
			}
		}
	}
	// back substitution, pipelined in the reverse direction
	for c0 := 0; c0 < lines; c0 += chunk {
		k := min(chunk, lines-c0)
		in, out := bin[:k], bout[:k]
		if next < np {
			p, err := msg.RecvRetry(ep, cfg, tr, "pipelined-sweep", next, bwdTag)
			if err != nil {
				return fmt.Errorf("apps: ADI backward sweep at rank %d: %w", rank, err)
			}
			vals := msg.DecodeFloat64s(p.Data)
			if len(vals) != k {
				return fmt.Errorf("apps: ADI backward sweep at rank %d: %d values for %d lines", rank, len(vals), k)
			}
			for j := range in {
				in[j] = kernels.BackState{X: vals[j], Valid: true}
			}
		}
		kernels.BackwardSegmentLines(data, c0*strd[other], strd[dim], segN, strd[other], k, seg, in, out)
		ctx.Charge(flopTime * float64(3*segN*k))
		if prev >= 0 {
			vals := make([]float64, k)
			for j, st := range out {
				vals[j] = st.X
			}
			if err := msg.SendRetry(ep, cfg, tr, "pipelined-sweep", prev, bwdTag, msg.EncodeFloat64s(vals)); err != nil {
				return fmt.Errorf("apps: ADI backward sweep at rank %d: %w", rank, err)
			}
		}
	}
	return nil
}

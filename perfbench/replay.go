package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/pario"
	"repro/internal/redist"
)

// The darray layer sits below core.Engine.Distribute and ckpt, so no span
// around a program-level call isolates it.  The replay calls the layer's
// public functions directly on a private machine, with the workload's own
// distributions: RedistributeTo along the run's distribution chain, and
// Local.AppendPacked/UnpackWire on the run's intersection grids — the
// redistribution schedules' send grids, or for a checkpointing workload the
// local grids cut by the checkpoint stripes.

type replayResult struct {
	redistS    float64 // per-rank mean time in RedistributeTo along the chain
	redistMBps float64 // payload bytes moved ÷ redistS
	packMBps   float64 // bytes packed plus unpacked ÷ time packing and unpacking, per rank
}

// replay runs on np ranks.  chain is the sequence of distributions the run
// moved through (each redistributed arrays arrays of the domain); ckpt
// lists the distributions checkpoints were taken under, with servers
// stripes each and ghost widths ghost.
func replay(np int, dom index.Domain, arrays int, chain, ckptDists []*dist.Distribution, servers int, ghost []int) (replayResult, error) {
	var out replayResult
	m := machine.New(np)
	defer m.Close()
	var mu sync.Mutex
	var redistT, packT time.Duration
	var packBytes int64
	err := m.Run(func(ctx *machine.Ctx) error {
		rank := ctx.Rank()
		var myRedist, myPack time.Duration
		var myBytes int64
		// packRoundTrip packs grid g of l and unpacks it back in place, as
		// the sending and receiving ends of one transfer do.
		var buf []byte
		packRoundTrip := func(l *darray.Local, g index.Grid) {
			if g.Empty() {
				return
			}
			t0 := time.Now()
			buf = l.AppendPacked(buf[:0], g)
			l.UnpackWire(g, buf)
			myPack += time.Since(t0)
			myBytes += 2 * int64(len(buf))
		}
		if len(chain) > 0 {
			as := make([]*darray.Array, arrays)
			for i := range as {
				as[i] = darray.New(ctx, fmt.Sprint("R", i), dom, chain[0])
				as[i].FillFunc(ctx, func(p index.Point) float64 { return float64(p[0]) })
			}
			for k := 1; k < len(chain); k++ {
				if !chain[k-1].Equal(chain[k]) {
					sched := redist.Build(chain[k-1], chain[k], rank, np)
					for _, a := range as {
						for _, t := range sched.Sends {
							if t.Peer != rank {
								packRoundTrip(a.Local(ctx), t.Grid)
							}
						}
					}
				}
				t0 := time.Now()
				for _, a := range as {
					if err := a.RedistributeTo(ctx, chain[k]); err != nil {
						return err
					}
				}
				myRedist += time.Since(t0)
			}
		}
		for i, d := range ckptDists {
			stripes := pario.StripeGrids(dom, min(servers, np))
			for j := 0; j < arrays; j++ {
				a := darray.New(ctx, fmt.Sprint("C", i, ".", j), dom, d, darray.WithGhost(ghost...))
				l := a.Local(ctx)
				for _, s := range stripes {
					packRoundTrip(l, l.Grid().Intersect(s))
				}
			}
		}
		mu.Lock()
		redistT += myRedist
		packT += myPack
		packBytes += myBytes
		mu.Unlock()
		return nil
	})
	if err != nil {
		return out, err
	}
	out.redistS = redistT.Seconds() / float64(np)
	if out.redistS > 0 {
		out.redistMBps = float64(m.Stats().Snapshot().TotalBytes()) / 1e6 / out.redistS
	}
	if packT > 0 {
		out.packMBps = float64(packBytes) / 1e6 / packT.Seconds()
	}
	return out, nil
}

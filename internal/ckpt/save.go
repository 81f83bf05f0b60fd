package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"repro/internal/darray"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/pario"
	"repro/internal/trace"
)

// Save writes one coordinated checkpoint epoch of the given arrays with
// default I/O options (collective).  See SaveOpts.
func Save(ctx *machine.Ctx, dir string, arrays []*darray.Array, meta map[string]string) (int, error) {
	return SaveOpts(ctx, dir, arrays, meta, Options{})
}

// SaveOpts writes one coordinated checkpoint epoch of the given arrays
// (collective; every rank passes the same arrays in the same order and
// the same options).  Every array must currently be distributed.  meta
// (may be nil) is stored in the manifest for the restoring run.
//
// The write is two-phase, ViPIOS style: each array's domain is split
// into opts.Servers stripes of the canonical file order, every rank's
// primary local spans are exchanged into the stripe owners with one
// collective Alltoallv per epoch, and only then do the I/O server ranks
// touch disk — each stripe written once, sequentially, by its server's
// dedicated goroutine while the ranks move on to the checksum gather and
// commit agreement.  Redundancy (a parity stripe built by a pipelined
// XOR chain across the servers, or a full replica of every stripe) is
// written in the same pass.  It returns the committed epoch number.
func SaveOpts(ctx *machine.Ctx, dir string, arrays []*darray.Array, meta map[string]string, opts Options) (int, error) {
	rank, np := ctx.Rank(), ctx.NP()
	if err := opts.Validate(); err != nil {
		return -1, err
	}
	opts = opts.withDefaults(np)
	f := opts.FS(rank)
	cfg := opts.IO
	tr := ctx.Tracer()
	ns := opts.Servers

	// Serialize descriptors first (deterministic: every rank fails
	// identically on a non-checkpointable distribution).
	metas := make([]ArrayMeta, len(arrays))
	for i, a := range arrays {
		d := a.Dist()
		if d == nil {
			return -1, fmt.Errorf("ckpt: array %s has no distribution", a.Name())
		}
		dm, err := distMeta(d)
		if err != nil {
			return -1, fmt.Errorf("ckpt: array %s: %w", a.Name(), err)
		}
		dom := a.Domain()
		am := ArrayMeta{Name: a.Name(), Dist: dm}
		for k := 0; k < dom.Rank(); k++ {
			am.Lo = append(am.Lo, dom.Lo[k])
			am.Hi = append(am.Hi, dom.Hi[k])
		}
		metas[i] = am
	}

	// Rank 0 picks the epoch number, garbage-collects staging directories
	// a crashed run left behind, and prepares this epoch's staging dir.
	epoch := -1
	var prepErr error
	if rank == 0 {
		epoch, prepErr = prepareStaging(f, cfg, tr, dir)
	}
	ep, err := ctx.Comm().BcastInts(0, []int{epoch})
	if err != nil {
		return -1, fmt.Errorf("ckpt: epoch agreement: %w", err)
	}
	epoch = ep[0]
	if epoch < 0 {
		if prepErr != nil {
			return -1, fmt.Errorf("ckpt: preparing %s: %w", dir, prepErr)
		}
		return -1, errors.New("ckpt: rank 0 failed to prepare the staging directory")
	}
	staging := filepath.Join(dir, stagingDirName(epoch))

	// Phase one: the collective exchange.  Each array's domain is striped
	// into ns canonical-order slabs; every rank packs the intersection of
	// its primary spans with each stripe and ships it to the stripe's
	// server (rank s owns stripe s).  Stripe layout — and therefore every
	// buffer size below — is a pure function of the domains and ns, so
	// all ranks agree on it without negotiation.
	stripes := make([][]index.Grid, len(arrays))
	for i, a := range arrays {
		stripes[i] = pario.StripeGrids(a.Domain(), ns)
	}
	send := make([][]byte, np)
	inters := make([]index.Grid, len(arrays))
	for s := 0; s < ns; s++ {
		count := 0
		for i, a := range arrays {
			inters[i] = index.Grid{}
			if !a.Dist().IsPrimaryRank(rank) {
				continue // replicated copies are identical; the primary ships
			}
			inters[i] = a.Local(ctx).Grid().Intersect(stripes[i][s])
			count += inters[i].Count()
		}
		if count == 0 {
			continue
		}
		// Sized once from the intersections: every pack below appends
		// within capacity.
		buf := make([]byte, 0, 8*count)
		for i, a := range arrays {
			if !inters[i].Empty() {
				buf = a.Local(ctx).AppendPacked(buf, inters[i])
			}
		}
		send[s] = buf
	}
	recv, err := ctx.Comm().Alltoallv(send)
	if err != nil {
		return -1, fmt.Errorf("ckpt: stripe exchange: %w", err)
	}

	// Phase two: the servers assemble their stripe in memory, checksum
	// it, and hand it to their I/O goroutine; the disk writes overlap the
	// parity chain, the checksum gather and the commit agreement below.
	var (
		srv       *pario.Server
		stripeBuf []byte
		myCRC     uint32
	)
	if rank < ns {
		stripeBuf = assembleStripe(ctx, arrays, stripes, recv, epoch, rank)
		myCRC = crc32.ChecksumIEEE(stripeBuf)
		srv = pario.StartServer(f, cfg, tr, rank)
		srv.Write(filepath.Join(staging, stripeFileName(rank)), stripeBuf)
		if opts.Redundancy == pario.RedundancyReplica {
			srv.Write(filepath.Join(staging, pario.ReplicaName(stripeFileName(rank))), stripeBuf)
		}
	}

	// Parity: a pipelined XOR chain across the server ranks (raw tag
	// 9101), zero-padded to the largest stripe; the last server writes
	// the folded result.  stripeBuf belongs to the I/O server until
	// Close, so the chain never writes into it: the first server copies
	// it into a fresh accumulator, and every later server folds its
	// stripe into the accumulator it received (which it owns).
	var parityCRC uint32
	var paritySize int
	if opts.Redundancy == pario.RedundancyParity && rank < ns {
		maxSize := 0
		for s := 0; s < ns; s++ {
			if sz := stripeSize(arrays, stripes, s); sz > maxSize {
				maxSize = sz
			}
		}
		var acc []byte
		ep, ccfg := ctx.Endpoint(), ctx.Comm().Config()
		if rank == 0 {
			acc = make([]byte, maxSize)
			copy(acc, stripeBuf)
		} else {
			p, err := msg.RecvRetry(ep, ccfg, tr, "ckpt-parity", rank-1, parityTag)
			if err != nil {
				return -1, fmt.Errorf("ckpt: parity chain: %w", err)
			}
			if len(p.Data) != maxSize {
				return -1, fmt.Errorf("ckpt: parity chain: %d bytes from rank %d, want %d", len(p.Data), rank-1, maxSize)
			}
			acc = p.Data
			pario.XorInto(acc, stripeBuf)
		}
		if rank < ns-1 {
			if err := msg.SendRetry(ep, ccfg, tr, "ckpt-parity", rank+1, parityTag, acc); err != nil {
				return -1, fmt.Errorf("ckpt: parity chain: %w", err)
			}
		} else {
			parityCRC = crc32.ChecksumIEEE(acc)
			paritySize = maxSize
			srv.Write(filepath.Join(staging, parityFileName()), acc)
		}
	}

	// Gather integrity data while the servers are still writing, then
	// join them and agree on the outcome — no rank commits alone.
	sums, err := ctx.Comm().AllgatherInts([]int{int(myCRC), len(stripeBuf), int(parityCRC), paritySize})
	if err != nil {
		return -1, fmt.Errorf("ckpt: checksum gather: %w", err)
	}
	var writeErr error
	if srv != nil {
		writeErr = srv.Close()
	}
	if err := agree(ctx, writeErr); err != nil {
		return -1, fmt.Errorf("ckpt: writing epoch %d: %w", epoch, err)
	}

	// Rank 0 writes the manifest and commits with the staging rename,
	// then applies the retention policy.
	var commitErr error
	if rank == 0 {
		man := Manifest{
			Version: Version, Epoch: epoch, NP: np, Meta: meta, Arrays: metas,
			NS: ns, Redundancy: opts.Redundancy,
		}
		for s := 0; s < ns; s++ {
			man.Stripes = append(man.Stripes, FileMeta{
				Rank: s, Name: stripeFileName(s), Size: int64(sums[s][1]), CRC: uint32(sums[s][0]),
			})
		}
		if opts.Redundancy == pario.RedundancyParity {
			man.Parity = &FileMeta{
				Rank: ns - 1, Name: parityFileName(),
				Size: int64(sums[ns-1][3]), CRC: uint32(sums[ns-1][2]),
			}
		}
		b, err := json.MarshalIndent(&man, "", "  ")
		if err == nil {
			err = cfg.WriteFile(f, tr, rank, manifestPath(staging), b)
		}
		if err == nil {
			// The rename is the commit point: before it the epoch is an
			// ignorable .tmp directory, after it the manifest and every
			// checksummed stripe are in place.
			err = cfg.Rename(f, tr, rank, staging, filepath.Join(dir, epochDirName(epoch)))
		}
		commitErr = err
		if commitErr == nil && opts.Keep > 0 {
			pruneEpochs(f, dir, opts.Keep)
		}
	}
	if err := agree(ctx, commitErr); err != nil {
		return -1, fmt.Errorf("ckpt: committing epoch %d: %w", epoch, err)
	}
	return epoch, nil
}

// parityTag is the raw message tag of the parity XOR chain (the 9xxx
// range is reserved for protocol traffic outside array redistribution).
const parityTag = 9101

// prepareStaging (rank 0 only) creates dir, removes stale staging
// directories from interrupted runs, picks the next epoch number and
// creates its staging directory.
func prepareStaging(f pario.FS, cfg pario.Config, tr *trace.Tracer, dir string) (int, error) {
	if err := cfg.MkdirAll(f, tr, 0, dir); err != nil {
		return -1, err
	}
	if ents, err := f.ReadDir(dir); err == nil {
		for _, e := range ents {
			if e.IsDir() && stagingDirRe.MatchString(e.Name()) {
				// Best-effort GC of an interrupted checkpoint's staging
				// debris; a leftover under this epoch's own name is
				// cleared again below in any case.
				_ = f.RemoveAll(filepath.Join(dir, e.Name()))
			}
		}
	}
	latest, err := maxEpochDir(f, dir)
	if err != nil {
		return -1, err
	}
	epoch := latest + 1
	staging := filepath.Join(dir, stagingDirName(epoch))
	if err := f.RemoveAll(staging); err != nil {
		return -1, err
	}
	if err := cfg.MkdirAll(f, tr, 0, staging); err != nil {
		return -1, err
	}
	return epoch, nil
}

// pruneEpochs removes all but the newest keep committed epochs
// (best-effort: retention must never fail a checkpoint that already
// committed).
func pruneEpochs(f pario.FS, dir string, keep int) {
	epochs, err := epochsIn(f, dir)
	if err != nil {
		return
	}
	for _, n := range epochs[min(keep, len(epochs)):] {
		_ = f.RemoveAll(filepath.Join(dir, epochDirName(n)))
	}
}

// stripeSize is the exact byte size of stripe s: the header plus, per
// array, a u32 count and the packed values.  Every rank computes the
// same sizes without communicating.
func stripeSize(arrays []*darray.Array, stripes [][]index.Grid, s int) int {
	n := 20
	for i := range arrays {
		n += 4 + 8*stripes[i][s].Count()
	}
	return n
}

// assembleStripe builds stripe s's file image from the Alltoallv
// receive buffers: for every source rank, the intersection of that
// rank's recorded primary grid with the stripe grid says exactly which
// canonical positions its payload bytes land in.
func assembleStripe(ctx *machine.Ctx, arrays []*darray.Array, stripes [][]index.Grid, recv [][]byte, epoch, s int) []byte {
	buf := make([]byte, 0, stripeSize(arrays, stripes, s))
	buf = appendU32(buf, stripeMagic)
	buf = appendU32(buf, Version)
	buf = appendU32(buf, uint32(epoch))
	buf = appendU32(buf, uint32(s))
	buf = appendU32(buf, uint32(len(arrays)))
	offs := make([]int, len(arrays))
	for i := range arrays {
		buf = appendU32(buf, uint32(stripes[i][s].Count()))
		offs[i] = len(buf)
		buf = buf[:len(buf)+8*stripes[i][s].Count()] // within capacity: zeroed
	}
	for r := 0; r < ctx.NP(); r++ {
		data := recv[r]
		off := 0
		for i, a := range arrays {
			d := a.Dist()
			if !d.IsPrimaryRank(r) {
				continue
			}
			inter := d.LocalGrid(r).Intersect(stripes[i][s])
			if inter.Empty() {
				continue
			}
			n := 8 * inter.Count()
			pario.Place(buf[offs[i]:offs[i]+8*stripes[i][s].Count()], data[off:off+n], inter, stripes[i][s])
			off += n
		}
	}
	return buf
}

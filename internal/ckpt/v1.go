package ckpt

import (
	"fmt"
	"path/filepath"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/msg"
	"repro/internal/pario"
	"repro/internal/trace"
)

// v1Reader reads the format-1 layout: one flat file per writing rank,
// keyed by the old distribution's per-rank ownership, no redundancy.
// Kept so checkpoints taken before the striped format remain restorable.
type v1Reader struct {
	f        pario.FS
	cfg      pario.Config
	tr       *trace.Tracer
	rank     int
	epochDir string
	man      *Manifest
	loaded   map[int][][]byte
}

func newV1Reader(f pario.FS, cfg pario.Config, tr *trace.Tracer, rank int, epochDir string, man *Manifest) *v1Reader {
	return &v1Reader{f: f, cfg: cfg, tr: tr, rank: rank, epochDir: epochDir, man: man, loaded: make(map[int][][]byte)}
}

// payloadsOf parses and integrity-checks one recorded rank file,
// returning the per-array payloads in manifest order (cached).
func (vr *v1Reader) payloadsOf(r int) ([][]byte, error) {
	if p, ok := vr.loaded[r]; ok {
		return p, nil
	}
	fm := vr.man.Files[r]
	data, err := vr.cfg.ReadFile(vr.f, vr.tr, vr.rank, filepath.Join(vr.epochDir, fm.Name))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != fm.Size || crc32IEEE(data) != fm.CRC {
		return nil, fmt.Errorf("ckpt: %s/%s: checksum mismatch (corrupt or interrupted checkpoint)", vr.epochDir, fm.Name)
	}
	if len(data) < 20 {
		return nil, fmt.Errorf("ckpt: %s/%s: truncated header", vr.epochDir, fm.Name)
	}
	u32 := func(off int) int { return int(getU32(data, off)) }
	if u32(0) != fileMagic || u32(4) != VersionV1 || u32(8) != vr.man.Epoch || u32(12) != r {
		return nil, fmt.Errorf("ckpt: %s/%s: header mismatch", vr.epochDir, fm.Name)
	}
	narr := u32(16)
	if narr != len(vr.man.Arrays) {
		return nil, fmt.Errorf("ckpt: %s/%s: %d arrays recorded, manifest has %d", vr.epochDir, fm.Name, narr, len(vr.man.Arrays))
	}
	payloads := make([][]byte, narr)
	off := 20
	for i := 0; i < narr; i++ {
		if off+4 > len(data) {
			return nil, fmt.Errorf("ckpt: %s/%s: truncated payload table", vr.epochDir, fm.Name)
		}
		n := u32(off)
		off += 4
		if off+8*n > len(data) {
			return nil, fmt.Errorf("ckpt: %s/%s: truncated payload %d", vr.epochDir, fm.Name, i)
		}
		payloads[i] = data[off : off+8*n]
		off += 8 * n
	}
	vr.loaded[r] = payloads
	return payloads, nil
}

// fill unpacks the spans of myGrid from the old ranks' files, using the
// replayed old distribution to know what each file holds.
func (vr *v1Reader) fill(l *darray.Local, myGrid index.Grid, oldD *dist.Distribution, ai, oldNP int) error {
	for r := 0; r < oldNP; r++ {
		if !oldD.IsPrimaryRank(r) {
			continue // replicated copies are identical; read one
		}
		oldGrid := oldD.LocalGrid(r)
		inter := myGrid.Intersect(oldGrid)
		if inter.Empty() {
			continue
		}
		payloads, err := vr.payloadsOf(r)
		if err != nil {
			return err
		}
		payload := payloads[ai]
		if msg.Float64Count(payload) != oldGrid.Count() {
			return fmt.Errorf("ckpt: rank %d payload has %d values, grid has %d",
				r, msg.Float64Count(payload), oldGrid.Count())
		}
		if gridsEqual(inter, oldGrid) && gridsEqual(inter, myGrid) {
			// Same ownership (the same-rank-count fast path): unpack
			// the whole recorded payload directly — bit-identical.
			l.UnpackWire(myGrid, payload)
			continue
		}
		l.UnpackWire(inter, pario.Extract(payload, oldGrid, inter))
	}
	return nil
}

package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/pario"
)

// stripeArray is one array of a stripe-layout case: its domain and its
// distribution over a processor arrangement of the given extents.
type stripeArray struct {
	dom    index.Domain
	target []int
	specs  []dist.DimSpec
}

// stripeCases cover the addressing shapes of the save path: contiguous
// blocks that move as whole runs, CYCLIC locals whose stripe
// intersections are strided multi-run sets (the per-element fallback),
// 1-D, 2-D and 3-D grids, uneven stripes, more stripes than the last
// dimension's extent (empty stripes), replicated copies, and several
// arrays in one epoch.
var stripeCases = []struct {
	name   string
	np, ns int
	arrays []stripeArray
}{
	{"1d-block", 4, 3, []stripeArray{{index.Dim(29), []int{4}, []dist.DimSpec{dist.BlockDim()}}}},
	{"1d-cyclic3", 4, 2, []stripeArray{{index.Dim(29), []int{4}, []dist.DimSpec{dist.CyclicDim(3)}}}},
	{"1d-cyclic1-uneven", 4, 4, []stripeArray{{index.Dim(30), []int{4}, []dist.DimSpec{dist.CyclicDim(1)}}}},
	{"2d-block2d", 4, 3, []stripeArray{{index.Dim(13, 9), []int{2, 2}, []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}}}},
	{"2d-cyclic-rows", 4, 2, []stripeArray{{index.Dim(11, 7), []int{4}, []dist.DimSpec{dist.CyclicDim(2), dist.ElidedDim()}}}},
	{"2d-cyclic-cols", 3, 3, []stripeArray{{index.Dim(5, 10), []int{3}, []dist.DimSpec{dist.ElidedDim(), dist.CyclicDim(1)}}}},
	{"2d-empty-stripes", 4, 4, []stripeArray{{index.Dim(6, 3), []int{4}, []dist.DimSpec{dist.BlockDim(), dist.ElidedDim()}}}},
	{"2d-replicated", 4, 2, []stripeArray{{index.Dim(13, 9), []int{2, 2}, []dist.DimSpec{dist.BlockDim(), dist.ElidedDim()}}}},
	{"3d-multi-array", 4, 3, []stripeArray{
		{index.Dim(6, 4, 5), []int{2, 2}, []dist.DimSpec{dist.BlockDim(), dist.ElidedDim(), dist.CyclicDim(1)}},
		{index.Dim(17), []int{4}, []dist.DimSpec{dist.CyclicDim(2)}},
		{index.Dim(3, 5, 7), []int{4}, []dist.DimSpec{dist.ElidedDim(), dist.ElidedDim(), dist.BlockDim()}},
	}},
}

// arrayVal gives array i of a case its own full-mantissa values in
// [1, 2), built from integer hashing alone so that the golden digests
// hold on every architecture.
func arrayVal(i int) func(index.Point) float64 {
	return func(p index.Point) float64 {
		h := uint64(i+1) * 0x9e3779b97f4a7c15
		for _, x := range p {
			h = (h ^ uint64(x)) * 0x100000001b3
		}
		return math.Float64frombits(0x3ff<<52 | h>>12)
	}
}

// saveCase saves one freshly filled epoch of the case's arrays into dir.
func saveCase(t *testing.T, dir string, np, ns int, arrays []stripeArray) {
	t.Helper()
	m := machine.New(np)
	defer m.Close()
	err := m.Run(func(ctx *machine.Ctx) error {
		as := make([]*darray.Array, len(arrays))
		for i, sa := range arrays {
			tg := ctx.Machine().ProcsDim(fmt.Sprintf("$S%d", i), sa.target...).Whole()
			d := dist.MustNew(dist.NewType(sa.specs...), sa.dom, tg)
			as[i] = darray.New(ctx, fmt.Sprintf("A%d", i), sa.dom, d)
			as[i].FillFunc(ctx, arrayVal(i))
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		_, err := SaveOpts(ctx, dir, as, nil, Options{Servers: ns, Redundancy: pario.RedundancyParity})
		return err
	})
	if err != nil {
		t.Fatalf("save: %v", err)
	}
}

// refPayloads encodes, element by element, the values of stripe s of
// every array in the stripe's canonical order.
func refPayloads(arrays []stripeArray, ns, s int) [][]byte {
	out := make([][]byte, len(arrays))
	for i, sa := range arrays {
		val := arrayVal(i)
		g := pario.StripeGrids(sa.dom, ns)[s]
		b := []byte{}
		g.ForEach(func(p index.Point) bool {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(val(p)))
			return true
		})
		out[i] = b
	}
	return out
}

// refStripe is the reference encoding of a format-2 stripe file: the
// five-word header, then per array a value count and the values.
func refStripe(epoch, s int, payloads [][]byte) []byte {
	b := appendU32(nil, stripeMagic)
	b = appendU32(b, Version)
	b = appendU32(b, uint32(epoch))
	b = appendU32(b, uint32(s))
	b = appendU32(b, uint32(len(payloads)))
	for _, p := range payloads {
		b = appendU32(b, uint32(len(p)/8))
		b = append(b, p...)
	}
	return b
}

// TestStripeFilesMatchReference holds the saved stripe and parity files
// — packed in whole runs, placed and XORed in blocks — byte-identical to
// an element-by-element encoding of the same values, on every case.
func TestStripeFilesMatchReference(t *testing.T) {
	for _, tc := range stripeCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			saveCase(t, dir, tc.np, tc.ns, tc.arrays)
			epochDir := filepath.Join(dir, epochDirName(0))
			var parity []byte
			for s := 0; s < tc.ns; s++ {
				want := refStripe(0, s, refPayloads(tc.arrays, tc.ns, s))
				got, err := os.ReadFile(filepath.Join(epochDir, stripeFileName(s)))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("stripe %d: %d bytes differ from the %d-byte reference", s, len(got), len(want))
				}
				for len(parity) < len(want) {
					parity = append(parity, 0)
				}
				for i, b := range want {
					parity[i] ^= b
				}
			}
			got, err := os.ReadFile(filepath.Join(epochDir, parityFileName()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, parity) {
				t.Fatalf("parity: %d bytes differ from the %d-byte bytewise reference", len(got), len(parity))
			}
		})
	}
}

// goldenDigests are the SHA-256 digests of the files of the
// "3d-multi-array" epoch as the element-by-element save path wrote
// them; the on-disk format must not change under a faster save.
var goldenDigests = map[string]string{
	"stripe-0000.bin": "571c39f3a5110610180a3b596c37f14150080bceea5202887141c84b9e0e420c",
	"stripe-0001.bin": "ffc7c62279ad130342860f357fd8c6ffad684fe562a077093436597a3b711e22",
	"stripe-0002.bin": "24aab90aab818b63a941e060285c62dc8cfa377cb456cc9d4a9ef5c3bbe2430e",
	"parity.bin":      "b2e435145964863a0aa5ac69dfb13122b58fd995fb90f6471bf767104323af4c",
}

// TestStripeGolden checks a saved epoch's stripe and parity files
// against digests recorded from the element-by-element save path.
func TestStripeGolden(t *testing.T) {
	tc := stripeCases[len(stripeCases)-1]
	dir := t.TempDir()
	saveCase(t, dir, tc.np, tc.ns, tc.arrays)
	for name, want := range goldenDigests {
		data, err := os.ReadFile(filepath.Join(dir, epochDirName(0), name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}
}

// TestStripePayloadsRejectsMalformed feeds the decoder one damaged
// variant of a real stripe per way a stripe can be malformed; each must
// fail with ErrBadStripe, and the intact stripe must decode.
func TestStripePayloadsRejectsMalformed(t *testing.T) {
	payloads := [][]byte{patternPayload(3), patternPayload(0), patternPayload(2)}
	good := refStripe(7, 1, payloads)
	man := &Manifest{Epoch: 7, Arrays: make([]ArrayMeta, len(payloads))}
	if _, err := stripePayloads(good, man, "epoch", 1); err != nil {
		t.Fatalf("intact stripe: %v", err)
	}
	with := func(off int, v uint32) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	cases := map[string][]byte{
		"empty":            nil,
		"short header":     good[:19],
		"bad magic":        with(0, fileMagic),
		"bad version":      with(4, VersionV1),
		"wrong epoch":      with(8, 8),
		"wrong stripe":     with(12, 0),
		"array count":      with(16, 2),
		"no payload table": good[:20],
		"cut in a count":   good[:22],
		"cut in a payload": good[:len(good)-1],
		"huge count":       with(20, math.MaxUint32),
		"trailing bytes":   append(append([]byte(nil), good...), 0),
	}
	for name, data := range cases {
		if _, err := stripePayloads(data, man, "epoch", 1); !errors.Is(err, ErrBadStripe) {
			t.Errorf("%s: err = %v, want ErrBadStripe", name, err)
		}
	}
}

// patternPayload returns n distinct wire values.
func patternPayload(n int) []byte {
	b := []byte{}
	for i := 0; i < n; i++ {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(i)+0.25))
	}
	return b
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the FuzzStripePayloads seed corpus under testdata/")

// TestWriteStripeCorpus regenerates the FuzzStripePayloads seed corpus
// from real stripe files (go test -run TestWriteStripeCorpus
// -update-corpus ./internal/ckpt); without the flag it is skipped.
func TestWriteStripeCorpus(t *testing.T) {
	if !*updateCorpus {
		t.Skip("run with -update-corpus to regenerate the seed corpus")
	}
	corpus := filepath.Join("testdata", "fuzz", "FuzzStripePayloads")
	if err := os.MkdirAll(corpus, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range stripeCases {
		if tc.name != "1d-cyclic3" && tc.name != "2d-empty-stripes" && tc.name != "3d-multi-array" {
			continue
		}
		dir := t.TempDir()
		saveCase(t, dir, tc.np, tc.ns, tc.arrays)
		for s := 0; s < tc.ns; s++ {
			data, err := os.ReadFile(filepath.Join(dir, epochDirName(0), stripeFileName(s)))
			if err != nil {
				t.Fatal(err)
			}
			entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nuint16(0)\nuint8(%d)\nuint8(%d)\n", data, s, len(tc.arrays))
			name := filepath.Join(corpus, fmt.Sprintf("%s-stripe%d", tc.name, s))
			if err := os.WriteFile(name, []byte(entry), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzStripePayloads feeds arbitrary bytes to the stripe-file decoder
// against a manifest of the given epoch and array count.  It must never
// panic, must reject malformed input with an ErrBadStripe error, and
// must decode valid input into payloads that re-encode to the input.
// The seed corpus under testdata/ holds real stripe files.
func FuzzStripePayloads(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, epoch uint16, s, narr uint8) {
		man := &Manifest{Epoch: int(epoch), Arrays: make([]ArrayMeta, narr)}
		payloads, err := stripePayloads(data, man, "epoch", int(s))
		if err != nil {
			if !errors.Is(err, ErrBadStripe) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(payloads) != int(narr) {
			t.Fatalf("%d payloads for %d arrays", len(payloads), narr)
		}
		if got := refStripe(int(epoch), int(s), payloads); !bytes.Equal(got, data) {
			t.Fatalf("decoded payloads re-encode to %d bytes, input had %d", len(got), len(data))
		}
	})
}

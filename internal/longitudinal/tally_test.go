package longitudinal

import (
	"fmt"
	"slices"
	"testing"

	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// The bit-sliced Tally against a scalar reference: a row adds one at each
// set position below k, AddIndex adds one at its position, and every
// reader (Counts, ExportTally, Absorb) sees the rows still pending in the
// bit-planes.

// scalarTally is the reference: one int64 increment per set bit.
type scalarTally struct {
	counts []int64
	n      int
}

func (s *scalarTally) addRow(words []uint64) {
	for i := range s.counts {
		if words[i/64]>>(uint(i)%64)&1 == 1 {
			s.counts[i]++
		}
	}
}

// randomRow returns a row of RowWords(k) words whose bits are set with
// probability 1/2^(sparsity+1), or all set when sparsity is negative —
// the rows that fill a counter to 255 before the drain. Tail bits past k
// are set too: AddRow must ignore them.
func randomRow(rng *randsrc.Rand, k int, sparsity int) []uint64 {
	row := make([]uint64, RowWords(k))
	for i := range row {
		if sparsity < 0 {
			row[i] = ^uint64(0)
			continue
		}
		w := rng.Uint64()
		for range sparsity {
			w &= rng.Uint64()
		}
		row[i] = w
	}
	return row
}

func checkCounts(t *testing.T, label string, got *Tally, want *scalarTally) {
	t.Helper()
	if !slices.Equal(got.Counts(), want.counts) {
		t.Fatalf("%s: counts %v, want %v", label, got.Counts(), want.counts)
	}
	if got.N != want.n {
		t.Fatalf("%s: N = %d, want %d", label, got.N, want.n)
	}
}

// TestTallyAddRowMatchesScalar: row counts on each side of the 255-row
// drain, full, dense and sparse rows, row lengths on each side of a word,
// with AddIndex interleaved.
func TestTallyAddRowMatchesScalar(t *testing.T) {
	rng := randsrc.NewSeeded(1)
	for _, k := range []int{1, 2, 63, 64, 65, 130, 1024} {
		for _, rows := range []int{0, 1, 254, 255, 256, 511} {
			for _, sparsity := range []int{-1, 0, 3} {
				tally, ref := NewTally(k), &scalarTally{counts: make([]int64, k)}
				for r := 0; r < rows; r++ {
					row := randomRow(rng, k, sparsity)
					tally.AddRow(row)
					ref.addRow(row)
					if r%7 == 0 {
						i := r % k
						tally.AddIndex(i)
						ref.counts[i]++
					}
					tally.N++
					ref.n++
				}
				checkCounts(t, fmt.Sprintf("k=%d rows=%d sparsity=%d", k, rows, sparsity), &tally, ref)
			}
		}
	}
}

// TestTallyExportMidRound: an export drains the pending rows without
// consuming them, and the round carries on from where it was.
func TestTallyExportMidRound(t *testing.T) {
	const k = 100
	rng := randsrc.NewSeeded(2)
	tally, ref := NewTally(k), &scalarTally{counts: make([]int64, k)}
	for _, rows := range []int{300, 10, 255} {
		for r := 0; r < rows; r++ {
			row := randomRow(rng, k, 0)
			tally.AddRow(row)
			ref.addRow(row)
			tally.N++
			ref.n++
		}
		got, n := tally.ExportTally([]int64{-1})
		if got[0] != -1 || !slices.Equal(got[1:], ref.counts) || n != ref.n {
			t.Fatalf("after %d more rows: exported %v n=%d, want %v n=%d", rows, got[1:], n, ref.counts, ref.n)
		}
	}
	checkCounts(t, "after the exports", &tally, ref)
}

// TestTallyAbsorbPendingBothSides: both tallies hold undrained rows; the
// receiver ends with the sum and the other with an empty round it can
// keep adding to.
func TestTallyAbsorbPendingBothSides(t *testing.T) {
	const k = 200
	rng := randsrc.NewSeeded(3)
	a, b := NewTally(k), NewTally(k)
	sum := &scalarTally{counts: make([]int64, k)}
	for r := 0; r < 300; r++ {
		row := randomRow(rng, k, r%2)
		if r%3 == 0 {
			b.AddRow(row)
			b.N++
		} else {
			a.AddRow(row)
			a.N++
		}
		sum.addRow(row)
		sum.n++
	}
	a.Absorb(&b)
	checkCounts(t, "receiver", &a, sum)
	empty := &scalarTally{counts: make([]int64, k)}
	checkCounts(t, "absorbed", &b, empty)
	row := randomRow(rng, k, 0)
	b.AddRow(row)
	empty.addRow(row)
	checkCounts(t, "absorbed, one row later", &b, empty)
}

// TestTallyImportAndReset: imported counts add to the pending rows, a
// mismatched import changes nothing, and Reset empties the planes too.
func TestTallyImportAndReset(t *testing.T) {
	const k = 70
	rng := randsrc.NewSeeded(4)
	tally, ref := NewTally(k), &scalarTally{counts: make([]int64, k)}
	for r := 0; r < 100; r++ {
		row := randomRow(rng, k, 1)
		tally.AddRow(row)
		ref.addRow(row)
	}
	imported := make([]int64, k)
	for i := range imported {
		imported[i] = int64(i * 3)
		ref.counts[i] += imported[i]
	}
	if err := tally.ImportTally(imported, 9); err != nil {
		t.Fatal(err)
	}
	ref.n += 9
	if err := tally.ImportTally(imported[1:], 1); err == nil {
		t.Fatal("short import accepted")
	}
	if err := tally.ImportTally(imported, -1); err == nil {
		t.Fatal("negative report count accepted")
	}
	checkCounts(t, "after import", &tally, ref)

	for r := 0; r < 10; r++ {
		tally.AddRow(randomRow(rng, k, 0))
	}
	tally.Reset()
	ref = &scalarTally{counts: make([]int64, k)}
	checkCounts(t, "after reset", &tally, ref)
	row := randomRow(rng, k, 0)
	tally.AddRow(row)
	ref.addRow(row)
	checkCounts(t, "one row after reset", &tally, ref)
}

// FuzzTallyAddRow drives a tally with arbitrary row lengths, row counts
// and densities, draining early and adding single indexes where ops says
// so, against the scalar reference.
func FuzzTallyAddRow(f *testing.F) {
	f.Add(uint64(1), uint16(1024), uint16(256), uint8(0), []byte{0})
	f.Add(uint64(2), uint16(65), uint16(511), uint8(2), []byte{1, 2, 3})
	f.Add(uint64(3), uint16(1), uint16(255), uint8(5), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, rowsRaw uint16, sparsity uint8, ops []byte) {
		k := int(kRaw)%2048 + 1
		rows := int(rowsRaw) % 1024
		rng := randsrc.NewSeeded(seed)
		tally, ref := NewTally(k), &scalarTally{counts: make([]int64, k)}
		for r := 0; r < rows; r++ {
			row := randomRow(rng, k, int(sparsity)%9-1)
			tally.AddRow(row)
			ref.addRow(row)
			if len(ops) == 0 {
				continue
			}
			switch op := ops[r%len(ops)]; op % 4 {
			case 1:
				tally.Counts()
			case 2:
				i := int(op) % k
				tally.AddIndex(i)
				ref.counts[i]++
			}
		}
		checkCounts(t, "fuzzed round", &tally, ref)
	})
}

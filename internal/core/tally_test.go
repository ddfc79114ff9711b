package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// byteLoopTally is the Algorithm 2 support loop the bit-plane kernel
// replaced, kept as its oracle: each user's hash table as k bytes, built
// on the user's first report, and one byte compare per candidate value.
type byteLoopTally struct {
	p      *Protocol
	tables map[int][]uint8
	counts []int64
}

func (b *byteLoopTally) add(userID int, hashSeed uint64, x int) {
	table, ok := b.tables[userID]
	if !ok {
		h := b.p.family.FromSeed(hashSeed)
		table = make([]uint8, b.p.k)
		for v := range table {
			table[v] = uint8(h.Index(v))
		}
		b.tables[userID] = table
	}
	for v, hv := range table {
		if hv == uint8(x) {
			b.counts[v]++
		}
	}
}

// TestSupportRowsMatchByteLoop: for every plane count from 1 to 4, row
// lengths on each side of a word, and both the bit-plane cache and
// WithoutSupportCache, wire payloads tallied through TallyCell count
// exactly what the byte loop counts — across the 255-row drain of the
// tally and with users reporting several times.
func TestSupportRowsMatchByteLoop(t *testing.T) {
	const users, reports = 40, 600
	for _, g := range []int{2, 3, 4, 5, 8, 16} {
		for _, k := range []int{2, 63, 64, 65, 1000, 1024} {
			for _, cached := range []bool{true, false} {
				t.Run(fmt.Sprintf("g=%d/k=%d/cached=%v", g, k, cached), func(t *testing.T) {
					var opts []Option
					if !cached {
						opts = append(opts, WithoutSupportCache())
					}
					p, err := New(k, g, 2, 1, opts...)
					if err != nil {
						t.Fatal(err)
					}
					agg := p.NewServer()
					ct := p.WireTallier()
					ref := &byteLoopTally{p: p, tables: map[int][]uint8{}, counts: make([]int64, k)}
					rng := randsrc.NewSeeded(uint64(g*10000 + k))
					seeds := make([]uint64, users)
					for u := range seeds {
						seeds[u] = p.newClient(rng.Uint64()).HashSeed()
					}
					for r := 0; r < reports; r++ {
						u, x := int(rng.Uint64()%users), int(rng.Uint64()%uint64(g))
						cell := freqoracle.AppendGRRReport(nil, x, g)
						if err := ct.TallyCell(agg, u, cell, longitudinal.Registration{HashSeed: seeds[u]}); err != nil {
							t.Fatal(err)
						}
						ref.add(u, seeds[u], x)
						if r == reports/3 && !slices.Equal(agg.Counts(), ref.counts) {
							t.Fatalf("after %d reports: counts %v, want %v", r+1, agg.Counts(), ref.counts)
						}
					}
					if !slices.Equal(agg.Counts(), ref.counts) || agg.N != reports {
						t.Fatalf("counts %v (N=%d), want %v (N=%d)", agg.Counts(), agg.N, ref.counts, reports)
					}
				})
			}
		}
	}
}

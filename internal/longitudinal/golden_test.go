package longitudinal

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// goldenReportDigests pins the exact report bytes of every UE-family
// client at fixed seeds: an FNV-1a 64 digest over all payloads a small
// cohort emits across an evolving value sequence. A change to report
// generation that alters any bit — the PRR memo, the IRR sampler's
// randomness contract, the cache eviction order — moves a digest. The
// digests were recorded before the word-parallel sampler landed, so they
// prove it bit-identical to the per-position implementation it replaced.
var goldenReportDigests = map[string]uint64{
	"L-OSUE-e4/k=100":  0xd71682af6cbddc7a,
	"L-OSUE-e4/k=1024": 0xab05f0392951d6a,
	"L-OSUE-e4/k=16":   0x32dd40660993ec1,
	"L-OSUE-e4/k=2":    0x79692075138f9cd4,
	"L-OSUE-e4/k=63":   0x99b6e2cb35447451,
	"L-OSUE-e4/k=64":   0x165eeffa4b1bad68,
	"L-OSUE/k=100":     0xabc960b39cfa67e7,
	"L-OSUE/k=1024":    0xf193527b69d9101,
	"L-OSUE/k=16":      0x3cd0c6f0a624fbb1,
	"L-OSUE/k=2":       0xb03c04c3ae0482ed,
	"L-OSUE/k=63":      0xad540cdadf564fa6,
	"L-OSUE/k=64":      0x438da085e5651de0,
	"L-OSUE/roam":      0x14a36514c4d296a,
	"L-OUE/k=100":      0x38828e3bc591560,
	"L-OUE/k=1024":     0xc88d49767fec80c1,
	"L-OUE/k=16":       0x4e6c0f896ae21091,
	"L-OUE/k=2":        0x3f83cbc9632aa49e,
	"L-OUE/k=63":       0x3d5075922dfd904c,
	"L-OUE/k=64":       0x9fd1fb97f4923d40,
	"L-SOUE/k=100":     0x6b2f2a31c805238b,
	"L-SOUE/k=1024":    0x7554a8aa15404f20,
	"L-SOUE/k=16":      0x8909367a2adc1651,
	"L-SOUE/k=2":       0x969b2b5ddf913352,
	"L-SOUE/k=63":      0x3179c8d5425eba58,
	"L-SOUE/k=64":      0x38167fcc36a112eb,
	"OUE/k=100/eps=1":  0xf7b722b38578c445,
	"OUE/k=100/eps=4":  0xf1f64e09d8bcea36,
	"OUE/k=1024/eps=1": 0x39972ea39e3f40f3,
	"OUE/k=1024/eps=4": 0xa77a2179c53ef522,
	"OUE/k=16/eps=1":   0xfe67a8c186de799f,
	"OUE/k=16/eps=4":   0xd9788e0f48971bb2,
	"RAPPOR/k=100":     0x516af92f5c7705ab,
	"RAPPOR/k=1024":    0x6092a117a5b20770,
	"RAPPOR/k=16":      0xd3670ff5e346cfe,
	"RAPPOR/k=2":       0x6ef592a248b50ac3,
	"RAPPOR/k=63":      0x10232f64985b5a14,
	"RAPPOR/k=64":      0xcfd8680bb7e74c85,
	"RAPPOR/roam":      0x54bb423eec135ee1,
	"SUE/k=100/eps=1":  0x71315db63f235dbd,
	"SUE/k=100/eps=4":  0x370384268424d103,
	"SUE/k=1024/eps=1": 0xe8ef4bf26597f324,
	"SUE/k=1024/eps=4": 0xabe04e365688219b,
	"SUE/k=16/eps=1":   0x440683530b15c448,
	"SUE/k=16/eps=4":   0xb1bb5d9266cb1eaf,
	"dBitFlipPM/d=1":   0x69cee1334e458584,
	"dBitFlipPM/d=256": 0x188c4c58b2402848,
	"dBitFlipPM/d=8":   0x152154ec986ced02,
}

// goldenChains lists the chained-UE calibrations the golden vectors cover,
// including the sparse ε∞ = 4 regime and the OUE-style IRRs.
var goldenChains = []struct {
	name string
	mk   func(k int) (*ChainUE, error)
}{
	{"RAPPOR", func(k int) (*ChainUE, error) { return NewRAPPOR(k, 2, 1) }},
	{"L-OSUE", func(k int) (*ChainUE, error) { return NewLOSUE(k, 2, 1) }},
	{"L-OSUE-e4", func(k int) (*ChainUE, error) { return NewLOSUE(k, 4, 2) }},
	{"L-OUE", func(k int) (*ChainUE, error) { return NewLOUE(k, 2, 0.4) }},
	{"L-SOUE", func(k int) (*ChainUE, error) { return NewLSOUE(k, 2, 0.4) }},
}

// goldenKs spans word-boundary cases of the packed encodings: below one
// word, one word minus a bit, exactly one word, a ragged tail, and the
// benchmark's k = 1024.
var goldenKs = []int{2, 16, 63, 64, 100, 1024}

// computeGoldenDigests regenerates every digest goldenReportDigests pins.
func computeGoldenDigests(t *testing.T) map[string]uint64 {
	t.Helper()
	got := map[string]uint64{}
	for _, ch := range goldenChains {
		for _, k := range goldenKs {
			proto, err := ch.mk(k)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var buf []byte
			for u := 0; u < 8; u++ {
				cl := proto.NewClient(randsrc.Derive(2023, uint64(u))).(AppendReporter)
				for _, v := range valueSequence(uint64(u)+5, k, 40) {
					buf = cl.AppendReport(buf[:0], v)
					h.Write(buf)
				}
			}
			got[fmt.Sprintf("%s/k=%d", ch.name, k)] = h.Sum64()
		}
	}
	// A client that roams over more distinct values than the PRR cache
	// holds, then revisits the first ones: the bytes must not depend on
	// what was evicted.
	for _, ch := range goldenChains[:2] {
		proto, err := ch.mk(1024)
		if err != nil {
			t.Fatal(err)
		}
		cl := proto.NewClient(99).(AppendReporter)
		h := fnv.New64a()
		var buf []byte
		for i := 0; i < 700; i++ {
			buf = cl.AppendReport(buf[:0], (i*37)%1024)
			h.Write(buf)
		}
		for i := 0; i < 50; i++ {
			buf = cl.AppendReport(buf[:0], (i*37)%1024)
			h.Write(buf)
		}
		got[ch.name+"/roam"] = h.Sum64()
	}
	// One-shot unary encoding: one sampler round with a single upgraded
	// position, at a sparse (OUE) and a dense (SUE) calibration.
	for _, k := range []int{16, 100, 1024} {
		for _, eps := range []float64{1, 4} {
			for _, mech := range []struct {
				name string
				mk   func(int, float64) (*freqoracle.UE, error)
			}{{"OUE", freqoracle.NewOUE}, {"SUE", freqoracle.NewSUE}} {
				m, err := mech.mk(k, eps)
				if err != nil {
					t.Fatal(err)
				}
				r := randsrc.NewSeeded(uint64(k) + uint64(eps))
				h := fnv.New64a()
				for i := 0; i < 64; i++ {
					h.Write(freqoracle.AppendUEReport(nil, m.Privatize((i*7)%k, r)))
				}
				got[fmt.Sprintf("%s/k=%d/eps=%v", mech.name, k, eps)] = h.Sum64()
			}
		}
	}
	// dBitFlipPM memoizes one sampler round per input bucket.
	for _, d := range []int{1, 8, 256} {
		proto, err := NewDBitFlipPM(1024, 256, d, 2)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf []byte
		for u := 0; u < 8; u++ {
			cl := proto.NewClient(randsrc.Derive(7, uint64(u))).(AppendReporter)
			for _, v := range valueSequence(uint64(u)+9, 1024, 40) {
				buf = cl.AppendReport(buf[:0], v)
				h.Write(buf)
			}
		}
		got[fmt.Sprintf("dBitFlipPM/d=%d", d)] = h.Sum64()
	}
	return got
}

// TestGoldenReportDigests: report bytes at fixed seeds are frozen.
func TestGoldenReportDigests(t *testing.T) {
	got := computeGoldenDigests(t)
	for name, d := range got {
		want, ok := goldenReportDigests[name]
		if !ok {
			t.Errorf("%q: %#x, // no golden digest recorded", name, d)
			continue
		}
		if d != want {
			t.Errorf("%s: report digest %#x, golden %#x", name, d, want)
		}
	}
	if len(got) != len(goldenReportDigests) {
		t.Errorf("computed %d digests, golden table has %d", len(got), len(goldenReportDigests))
	}
}

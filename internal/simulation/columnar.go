package simulation

// Columnar round files: a dataset materialized as one encoded columnar
// batch per collection round, the decode-free interchange format between
// lolohadata (which generates workloads) and a collection service (which
// ingests them). Round 0 carries the cohort's registration columns, so a
// fresh stream enrolls and tallies from the files alone; later rounds are
// the steady-state form. The decoder's payload column aliases the file
// bytes, so a memory-mapped file replays without copying.

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/loloha-ldp/loloha/internal/datasets"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
	"github.com/loloha-ldp/loloha/internal/server"
)

// ExportColumnar writes one columnar batch file per round of the dataset
// into dir (round-0000.lcb, round-0001.lcb, ...) and returns the paths in
// round order. Clients are seeded randsrc.Derive(seed, u) — the same
// cohort Replay builds — so ReplayColumnar over the files reproduces
// Replay's estimates bit-identically.
func ExportColumnar(ds *datasets.Dataset, proto longitudinal.Protocol, seed uint64, dir string) ([]string, error) {
	stride := proto.WireTallier().PayloadStride()
	specHash := proto.Spec().Hash()
	n, tau := ds.N(), ds.Tau()
	clients := make([]longitudinal.Client, n)
	regs := make([]longitudinal.Registration, n)
	for u := range clients {
		clients[u] = proto.NewClient(randsrc.Derive(seed, uint64(u)))
		regs[u] = clients[u].WireRegistration()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	paths := make([]string, tau)
	var payload []byte
	for t := 0; t < tau; t++ {
		// A fresh writer per round: only round 0 carries the registration
		// columns, and WithRegistrations is a construction-time choice.
		w, err := longitudinal.NewColumnarWriter(specHash, stride)
		if err != nil {
			return nil, err
		}
		w.SetRound(uint32(t))
		if t == 0 {
			if err := w.WithRegistrations(len(regs[0].Sampled)); err != nil {
				return nil, err
			}
		}
		round := ds.Round(t)
		for u, cl := range clients {
			payload = cl.AppendReport(payload[:0], round[u])
			if t == 0 {
				err = w.AddWithRegistration(u, payload, regs[u])
			} else {
				err = w.Add(u, payload)
			}
			if err != nil {
				return nil, fmt.Errorf("simulation: round %d user %d: %w", t, u, err)
			}
		}
		paths[t] = filepath.Join(dir, fmt.Sprintf("round-%04d.lcb", t))
		if err := os.WriteFile(paths[t], w.AppendTo(nil), 0o644); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// ReplayColumnar feeds columnar round files (as written by ExportColumnar,
// in round order) through a fresh sharded Stream and returns each round's
// raw estimates. Enrollment comes from the first file's registration
// columns; estimates are bit-identical to Replay at any shard count.
func ReplayColumnar(proto longitudinal.Protocol, shards int, files []string) ([][]float64, error) {
	stream, err := server.NewStream(proto, server.WithShards(shards))
	if err != nil {
		return nil, err
	}
	defer stream.Close()

	out := make([][]float64, 0, len(files))
	var batch longitudinal.ColumnarBatch
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := longitudinal.DecodeColumnar(data, &batch); err != nil {
			return nil, fmt.Errorf("simulation: %s: %w", path, err)
		}
		if err := stream.IngestColumnar(&batch); err != nil {
			return nil, fmt.Errorf("simulation: %s: %w", path, err)
		}
		res := stream.CloseRound()
		out = append(out, res.Raw)
	}
	return out, nil
}

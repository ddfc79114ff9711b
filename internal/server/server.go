// Package server implements the wire-level collection service on top of
// the longitudinal protocols: users enroll once with their registration
// metadata (hash seed for LOLOHA, sampled buckets for dBitFlipPM, nothing
// for UE/GRR chains), then stream fixed-size round payloads as raw bytes.
// The service tallies and publishes per-round results.
//
// Stream is the production-facing face of the library: everything the
// simulation harness does with in-memory Report values, a Stream does from
// bytes — and tests prove the paths produce identical estimates.
//
// Payload ingestion has one contract: the protocol implements
// longitudinal.TallyProtocol, whose ColumnarTallier tallies payload bits
// straight into the shard aggregators with zero steady-state allocations
// (every protocol in this repository does). Nothing in this package
// enumerates protocol types.
package server

import "github.com/loloha-ldp/loloha/internal/longitudinal"

// Registration carries a user's one-time enrollment metadata.
type Registration = longitudinal.Registration

package core

import (
	"fmt"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// WireTallier implements longitudinal.Protocol: LOLOHA payloads tally
// directly into the aggregator's support counts with zero steady-state
// allocations (the user's hash bit-planes are built once, on the user's
// first report). The aggregator's round state is the embedded
// longitudinal.Tally like every other family's; its per-user hashes and
// bit-planes are pure functions of the enrolled hash seeds and rebuild
// lazily after a restore, so they are deliberately not exported.
func (p *Protocol) WireTallier() longitudinal.ColumnarTallier { return wireTallier{proto: p} }

type wireTallier struct{ proto *Protocol }

// PayloadStride implements longitudinal.ColumnarTallier.
//
//loloha:noalloc
func (t wireTallier) PayloadStride() int { return freqoracle.GRRPayloadBytes(t.proto.g) }

// TallyCell implements longitudinal.ColumnarTallier: parse the sanitized
// hash cell (with its range check) and add its Algorithm 2 support row,
// built from the user's registered hash.
//
//loloha:noalloc
func (t wireTallier) TallyCell(agg longitudinal.Aggregator, userID int, cell []byte, reg longitudinal.Registration) error {
	a, ok := agg.(*Aggregator)
	if !ok || a.proto != t.proto {
		return fmt.Errorf("core: LOLOHA tallier cannot tally into %T", agg)
	}
	x, err := freqoracle.ParseGRRPayload(cell, t.proto.g)
	if err != nil {
		return err
	}
	a.addCell(userID, reg.HashSeed, x)
	return nil
}

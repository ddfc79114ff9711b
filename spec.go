package loloha

import (
	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// Declarative protocol construction. A ProtocolSpec is a plain,
// JSON-serializable description of one protocol configuration, and the
// family registry turns it into a running Protocol:
//
//	spec, _ := loloha.ParseSpec([]byte(`{"family":"BiLOLOHA","k":100,"eps_inf":1.0,"eps1":0.5}`))
//	proto, _ := spec.Build()
//	stream, _ := loloha.NewStream(proto)
//
// Every New* constructor has a spec equivalent (see the README migration
// table), every built protocol describes itself back via SpecOf, and a
// family registered once with RegisterFamily is constructible from a spec
// everywhere — Stream serving, simulation grids and the lolohasim CLI.

// ProtocolSpec is the declarative protocol description: a family name plus
// the union of every family's parameters (K, G, B, D, EpsInf, Eps1).
// Fields a family does not consume must stay zero; Build validates against
// the family's declared parameter domains before constructing.
type ProtocolSpec = longitudinal.ProtocolSpec

// FamilyInfo describes one registered protocol family: its builder and
// the spec fields it consumes.
type FamilyInfo = longitudinal.FamilyInfo

// SpecField names one ProtocolSpec parameter inside a FamilyInfo's
// Required/Optional domain lists.
type SpecField = longitudinal.Field

// The ProtocolSpec parameters, as used in FamilyInfo domain lists. The
// values match the spec's JSON keys.
const (
	SpecFieldK      = longitudinal.FieldK
	SpecFieldG      = longitudinal.FieldG
	SpecFieldB      = longitudinal.FieldB
	SpecFieldD      = longitudinal.FieldD
	SpecFieldEpsInf = longitudinal.FieldEpsInf
	SpecFieldEps1   = longitudinal.FieldEps1
)

// SpecProtocol is a Protocol that describes itself as a ProtocolSpec, so
// built protocols round-trip (spec → Build → Spec → Build) to bit-identical
// configurations. Every protocol in this repository implements it.
type SpecProtocol = longitudinal.SpecProtocol

// RegisterFamily associates a protocol family name with its builder and
// parameter domains. One registration makes the family
// constructible from a ProtocolSpec everywhere a built-in is: Stream
// serving, simulation grids and the CLI. Registering an existing name
// replaces the entry; a FamilyInfo without a Build removes it.
func RegisterFamily(name string, info FamilyInfo) {
	longitudinal.RegisterFamily(name, info)
}

// LookupFamily returns the registered info for a family name.
func LookupFamily(name string) (FamilyInfo, bool) {
	return longitudinal.LookupFamily(name)
}

// Families returns the registered protocol family names, sorted. All
// built-in families self-register: LOLOHA, BiLOLOHA, OLOLOHA, RAPPOR,
// L-OSUE, L-OUE, L-SOUE, L-GRR, dBitFlipPM, 1BitFlipPM and bBitFlipPM.
func Families() []string {
	return longitudinal.Families()
}

// ParseSpec decodes one JSON ProtocolSpec, rejecting unknown fields so a
// typo'd parameter fails loudly instead of building a different protocol.
func ParseSpec(data []byte) (ProtocolSpec, error) {
	return longitudinal.ParseSpec(data)
}

// ParseSpecs decodes a JSON array of ProtocolSpecs (a single object parses
// as a one-element list) — the `lolohasim -spec <file.json>` format.
func ParseSpecs(data []byte) ([]ProtocolSpec, error) {
	return longitudinal.ParseSpecs(data)
}

// SpecOf returns the declarative spec of a built protocol, when the
// protocol can describe itself (every protocol in this repository can).
func SpecOf(p Protocol) (ProtocolSpec, bool) {
	return longitudinal.SpecOf(p)
}

package longitudinal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Declarative protocol construction. A ProtocolSpec is a plain, serializable
// description of one protocol configuration — the config-driven pattern used
// by production LDP systems and by evaluation harnesses such as
// multi-freq-ldpy — and the family registry maps its Family name onto a
// builder. One registration per family replaces parallel enumeration
// mechanisms (positional constructors, simulation closures): a family
// registered once is usable from Stream, simulation grids and the CLI
// alike.

// Field names one ProtocolSpec parameter; FamilyInfo uses Fields to declare
// which parameters a family consumes, driving both validation and the CLI's
// `lolohasim specs` listing.
type Field string

// The ProtocolSpec parameters. The string values match the spec's JSON keys.
const (
	FieldK      Field = "k"
	FieldG      Field = "g"
	FieldB      Field = "b"
	FieldD      Field = "d"
	FieldEpsInf Field = "eps_inf"
	FieldEps1   Field = "eps1"
)

// specFieldOrder fixes the field iteration order so validation errors are
// deterministic.
var specFieldOrder = []Field{FieldK, FieldG, FieldB, FieldD, FieldEpsInf, FieldEps1}

// ProtocolSpec is a declarative, JSON-serializable protocol description:
// the family name plus the union of every built-in family's parameters.
// Fields a family does not consume must stay zero — Validate rejects
// anything else, so a spec never silently drops a parameter.
//
//	spec := longitudinal.ProtocolSpec{Family: "RAPPOR", K: 100, EpsInf: 1.0, Eps1: 0.5}
//	proto, err := spec.Build()
type ProtocolSpec struct {
	// Family is the registered family name (RegisterFamily).
	Family string `json:"family"`
	// K is the original domain size; every family requires it.
	K int `json:"k"`
	// G is the reduced hash domain (LOLOHA with explicit g).
	G int `json:"g,omitempty"`
	// B is the bucket count (dBitFlipPM).
	B int `json:"b,omitempty"`
	// D is the sampled bits per user (dBitFlipPM).
	D int `json:"d,omitempty"`
	// EpsInf is the longitudinal budget ε∞.
	EpsInf float64 `json:"eps_inf,omitempty"`
	// Eps1 is the first-report budget ε1 (chained protocols only).
	Eps1 float64 `json:"eps1,omitempty"`
}

// FamilyInfo describes one registered protocol family.
type FamilyInfo struct {
	// Build constructs a protocol from a validated spec.
	Build func(ProtocolSpec) (Protocol, error)
	// Required lists the spec fields the family demands (beyond being
	// non-zero, range checks live in Build).
	Required []Field
	// Optional lists spec fields the family accepts but does not demand.
	Optional []Field
	// Doc is a one-line human-readable description, shown by
	// `lolohasim specs`.
	Doc string
}

// Uses reports whether the family consumes the given spec field.
func (i FamilyInfo) Uses(f Field) bool {
	for _, r := range i.Required {
		if r == f {
			return true
		}
	}
	for _, o := range i.Optional {
		if o == f {
			return true
		}
	}
	return false
}

var (
	familyMu sync.RWMutex
	families = map[string]FamilyInfo{}
)

// RegisterFamily associates a family name with its builder and parameter
// domains. Registering an existing name replaces the earlier entry;
// registering a FamilyInfo without a Build removes it. External protocols
// register once and become constructible from a ProtocolSpec everywhere a
// built-in family is.
func RegisterFamily(name string, info FamilyInfo) {
	if name == "" {
		panic("longitudinal: RegisterFamily with empty family name")
	}
	familyMu.Lock()
	defer familyMu.Unlock()
	if info.Build == nil {
		delete(families, name)
		return
	}
	families[name] = info
}

// LookupFamily returns the registered info for a family name.
func LookupFamily(name string) (FamilyInfo, bool) {
	familyMu.RLock()
	defer familyMu.RUnlock()
	info, ok := families[name]
	return info, ok
}

// Families returns the registered family names, sorted.
func Families() []string {
	familyMu.RLock()
	defer familyMu.RUnlock()
	out := make([]string, 0, len(families))
	for name := range families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// set reports whether the spec assigns the field a non-zero value.
func (s ProtocolSpec) set(f Field) bool {
	switch f {
	case FieldK:
		return s.K != 0
	case FieldG:
		return s.G != 0
	case FieldB:
		return s.B != 0
	case FieldD:
		return s.D != 0
	case FieldEpsInf:
		return s.EpsInf != 0
	case FieldEps1:
		return s.Eps1 != 0
	}
	return false
}

// Validate checks the spec against its family's declared parameter domains:
// the family must be registered, every required field set and every field
// outside the family's domain zero. Range checks (k >= 2, 0 < ε1 < ε∞, ...)
// belong to the family's Build.
func (s ProtocolSpec) Validate() error {
	info, err := familyFor(s.Family)
	if err != nil {
		return err
	}
	return s.validateFields(info)
}

func (s ProtocolSpec) validateFields(info FamilyInfo) error {
	for _, f := range specFieldOrder {
		switch {
		case !s.set(f) && fieldIn(info.Required, f):
			return fmt.Errorf("longitudinal: family %q requires spec field %q", s.Family, f)
		case s.set(f) && !info.Uses(f):
			return fmt.Errorf("longitudinal: family %q does not take spec field %q", s.Family, f)
		}
	}
	return nil
}

func fieldIn(fs []Field, f Field) bool {
	for _, x := range fs {
		if x == f {
			return true
		}
	}
	return false
}

func familyFor(name string) (FamilyInfo, error) {
	if name == "" {
		return FamilyInfo{}, fmt.Errorf("longitudinal: protocol spec has no family (registered: %s)",
			strings.Join(Families(), ", "))
	}
	info, ok := LookupFamily(name)
	if !ok {
		return FamilyInfo{}, fmt.Errorf("longitudinal: unknown protocol family %q (registered: %s)",
			name, strings.Join(Families(), ", "))
	}
	return info, nil
}

// Build validates the spec and constructs the protocol through the family
// registry.
func (s ProtocolSpec) Build() (Protocol, error) {
	info, err := familyFor(s.Family)
	if err != nil {
		return nil, err
	}
	if err := s.validateFields(info); err != nil {
		return nil, err
	}
	return info.Build(s)
}

// ParseSpec decodes one JSON ProtocolSpec, rejecting unknown fields and
// trailing data — a typo'd parameter fails loudly instead of silently
// building a different protocol.
func ParseSpec(data []byte) (ProtocolSpec, error) {
	var s ProtocolSpec
	if err := strictUnmarshal(data, &s); err != nil {
		return ProtocolSpec{}, fmt.Errorf("longitudinal: parsing protocol spec: %w", err)
	}
	return s, nil
}

// ParseSpecs decodes a JSON array of ProtocolSpecs; a single object parses
// as a one-element list.
func ParseSpecs(data []byte) ([]ProtocolSpec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] != '[' {
		s, err := ParseSpec(data)
		if err != nil {
			return nil, err
		}
		return []ProtocolSpec{s}, nil
	}
	var specs []ProtocolSpec
	if err := strictUnmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("longitudinal: parsing protocol spec list: %w", err)
	}
	return specs, nil
}

func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// SpecProtocol is a Protocol that can describe itself as a ProtocolSpec, so
// a built protocol round-trips: spec → Build → Spec → Build produces a
// configuration with bit-identical estimates. Every protocol in this
// repository implements it; the spec captures the declarative parameters
// only (non-default construction options such as a custom hash family are
// not part of the wire-level description).
type SpecProtocol interface {
	Protocol
	// Spec returns the declarative description of this protocol.
	Spec() ProtocolSpec
}

// SpecOf returns the declarative spec of a built protocol, when the
// protocol can describe itself (every protocol in this repository can).
func SpecOf(p Protocol) (ProtocolSpec, bool) {
	sp, ok := p.(SpecProtocol)
	if !ok {
		return ProtocolSpec{}, false
	}
	return sp.Spec(), true
}

// ---------------------------------------------------------------------------
// Built-in family registrations for this package's protocols. The LOLOHA
// families register from internal/core.

func init() {
	chained := []Field{FieldK, FieldEpsInf, FieldEps1}

	RegisterFamily("RAPPOR", FamilyInfo{
		Doc:      "RAPPOR (L-SUE): SUE chained with SUE (§2.4.1)",
		Required: chained,
		Build:    func(s ProtocolSpec) (Protocol, error) { return NewRAPPOR(s.K, s.EpsInf, s.Eps1) },
	})
	RegisterFamily("L-OSUE", FamilyInfo{
		Doc:      "L-OSUE: OUE chained with SUE, the optimized unary-encoding baseline (§2.4.2)",
		Required: chained,
		Build:    func(s ProtocolSpec) (Protocol, error) { return NewLOSUE(s.K, s.EpsInf, s.Eps1) },
	})
	RegisterFamily("L-OUE", FamilyInfo{
		Doc:      "L-OUE: OUE chained with OUE (infeasible (ε∞, ε1) pairs error)",
		Required: chained,
		Build:    func(s ProtocolSpec) (Protocol, error) { return NewLOUE(s.K, s.EpsInf, s.Eps1) },
	})
	RegisterFamily("L-SOUE", FamilyInfo{
		Doc:      "L-SOUE: SUE chained with OUE (infeasible (ε∞, ε1) pairs error)",
		Required: chained,
		Build:    func(s ProtocolSpec) (Protocol, error) { return NewLSOUE(s.K, s.EpsInf, s.Eps1) },
	})
	RegisterFamily("L-GRR", FamilyInfo{
		Doc:      "L-GRR: GRR chained with GRR, best for small domains (§2.4.3)",
		Required: chained,
		Build:    func(s ProtocolSpec) (Protocol, error) { return NewLGRR(s.K, s.EpsInf, s.Eps1) },
	})
	RegisterFamily("dBitFlipPM", FamilyInfo{
		Doc:      "Microsoft dBitFlipPM: b equal-width buckets, d sampled bits per user, no IRR round (§2.4.4)",
		Required: []Field{FieldK, FieldB, FieldD, FieldEpsInf},
		Build:    func(s ProtocolSpec) (Protocol, error) { return NewDBitFlipPM(s.K, s.B, s.D, s.EpsInf) },
	})
	RegisterFamily("1BitFlipPM", FamilyInfo{
		Doc:      "dBitFlipPM with d = 1: one sampled bit per user (lowest communication)",
		Required: []Field{FieldK, FieldB, FieldEpsInf},
		Optional: []Field{FieldD},
		Build: func(s ProtocolSpec) (Protocol, error) {
			if s.D != 0 && s.D != 1 {
				return nil, fmt.Errorf("longitudinal: family 1BitFlipPM fixes d = 1, got d=%d", s.D)
			}
			return NewDBitFlipPM(s.K, s.B, 1, s.EpsInf)
		},
	})
	RegisterFamily("bBitFlipPM", FamilyInfo{
		Doc:      "dBitFlipPM with d = b: every bucket sampled (best utility, b bits per round)",
		Required: []Field{FieldK, FieldB, FieldEpsInf},
		Optional: []Field{FieldD},
		Build: func(s ProtocolSpec) (Protocol, error) {
			if s.D != 0 && s.D != s.B {
				return nil, fmt.Errorf("longitudinal: family bBitFlipPM fixes d = b = %d, got d=%d", s.B, s.D)
			}
			return NewDBitFlipPM(s.K, s.B, s.B, s.EpsInf)
		},
	})
}

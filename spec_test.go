// Declarative construction tests: every built-in family builds from a
// serializable ProtocolSpec alone, spec-built protocols are bit-identical
// to constructor-built ones, and built protocols round-trip back through
// Protocol.Spec(). These tests are deterministic by construction (CI runs
// them with -count=2 to prove it).
package loloha_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	loloha "github.com/loloha-ldp/loloha"
)

// specCase pairs a declarative spec with the equivalent positional
// constructor call for one protocol family.
type specCase struct {
	name string
	spec loloha.ProtocolSpec
	mk   func() (loloha.Protocol, error)
}

// specCases covers the paper's seven protocol families (the three LOLOHA
// configurations count as one family with three registered names).
func specCases() []specCase {
	const (
		k      = 24
		epsInf = 1.2
		eps1   = 0.6
	)
	return []specCase{
		{
			name: "LOLOHA",
			spec: loloha.ProtocolSpec{Family: "LOLOHA", K: k, G: 4, EpsInf: epsInf, Eps1: eps1},
			mk:   func() (loloha.Protocol, error) { return loloha.New(k, 4, epsInf, eps1) },
		},
		{
			name: "BiLOLOHA",
			spec: loloha.ProtocolSpec{Family: "BiLOLOHA", K: k, EpsInf: epsInf, Eps1: eps1},
			mk:   func() (loloha.Protocol, error) { return loloha.NewBiLOLOHA(k, epsInf, eps1) },
		},
		{
			name: "OLOLOHA",
			spec: loloha.ProtocolSpec{Family: "OLOLOHA", K: k, EpsInf: epsInf, Eps1: eps1},
			mk:   func() (loloha.Protocol, error) { return loloha.NewOLOLOHA(k, epsInf, eps1) },
		},
		{
			name: "RAPPOR",
			spec: loloha.ProtocolSpec{Family: "RAPPOR", K: k, EpsInf: epsInf, Eps1: eps1},
			mk:   func() (loloha.Protocol, error) { return loloha.NewRAPPOR(k, epsInf, eps1) },
		},
		{
			name: "L-OSUE",
			spec: loloha.ProtocolSpec{Family: "L-OSUE", K: k, EpsInf: epsInf, Eps1: eps1},
			mk:   func() (loloha.Protocol, error) { return loloha.NewLOSUE(k, epsInf, eps1) },
		},
		{
			name: "L-OUE",
			spec: loloha.ProtocolSpec{Family: "L-OUE", K: k, EpsInf: epsInf, Eps1: eps1},
			mk:   func() (loloha.Protocol, error) { return loloha.NewLOUE(k, epsInf, eps1) },
		},
		{
			name: "L-SOUE",
			spec: loloha.ProtocolSpec{Family: "L-SOUE", K: k, EpsInf: epsInf, Eps1: eps1},
			mk:   func() (loloha.Protocol, error) { return loloha.NewLSOUE(k, epsInf, eps1) },
		},
		{
			name: "L-GRR",
			spec: loloha.ProtocolSpec{Family: "L-GRR", K: k, EpsInf: epsInf, Eps1: eps1},
			mk:   func() (loloha.Protocol, error) { return loloha.NewLGRR(k, epsInf, eps1) },
		},
		{
			name: "dBitFlipPM",
			spec: loloha.ProtocolSpec{Family: "dBitFlipPM", K: k, B: 12, D: 3, EpsInf: epsInf},
			mk:   func() (loloha.Protocol, error) { return loloha.NewDBitFlipPM(k, 12, 3, epsInf) },
		},
		{
			name: "1BitFlipPM",
			spec: loloha.ProtocolSpec{Family: "1BitFlipPM", K: k, B: 12, EpsInf: epsInf},
			mk:   func() (loloha.Protocol, error) { return loloha.NewDBitFlipPM(k, 12, 1, epsInf) },
		},
		{
			name: "bBitFlipPM",
			spec: loloha.ProtocolSpec{Family: "bBitFlipPM", K: k, B: 12, EpsInf: epsInf},
			mk:   func() (loloha.Protocol, error) { return loloha.NewDBitFlipPM(k, 12, 12, epsInf) },
		},
	}
}

// specCollect runs three sharded cohort rounds at a fixed seed and returns
// the raw per-round estimates; identical protocol configurations produce
// bit-identical results.
func specCollect(t *testing.T, proto loloha.Protocol) [][]float64 {
	t.Helper()
	stream, err := loloha.NewStream(proto, loloha.WithCohort(48, 99), loloha.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int, 48)
	var out [][]float64
	for r := 0; r < 3; r++ {
		for u := range values {
			values[u] = (u + r) % proto.K()
		}
		res, err := stream.Collect(values)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.Raw)
	}
	return out
}

func TestSpecBuildMatchesConstructors(t *testing.T) {
	for _, c := range specCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			fromSpec, err := c.spec.Build()
			if err != nil {
				t.Fatalf("spec build: %v", err)
			}
			fromCtor, err := c.mk()
			if err != nil {
				t.Fatalf("constructor: %v", err)
			}
			if got, want := specCollect(t, fromSpec), specCollect(t, fromCtor); !reflect.DeepEqual(got, want) {
				t.Errorf("spec-built estimates differ from constructor-built")
			}
		})
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, c := range specCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			data, err := json.Marshal(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			back, err := loloha.ParseSpec(data)
			if err != nil {
				t.Fatalf("parse %s: %v", data, err)
			}
			if back != c.spec {
				t.Fatalf("round-trip %s: got %+v, want %+v", data, back, c.spec)
			}
			if _, err := back.Build(); err != nil {
				t.Fatalf("unmarshaled spec does not build: %v", err)
			}
		})
	}
}

func TestSpecProtocolRoundTrip(t *testing.T) {
	// spec → Build → Spec → Build yields bit-identical estimates.
	for _, c := range specCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			first, err := c.spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			derived := first.Spec()
			second, err := derived.Build()
			if err != nil {
				t.Fatalf("derived spec %+v does not build: %v", derived, err)
			}
			if got, want := specCollect(t, second), specCollect(t, first); !reflect.DeepEqual(got, want) {
				t.Errorf("round-tripped protocol estimates differ (derived spec %+v)", derived)
			}
		})
	}
}

func TestSpecFamiliesRegistered(t *testing.T) {
	registered := strings.Join(loloha.Families(), ",")
	for _, c := range specCases() {
		if !strings.Contains(registered, c.spec.Family) {
			t.Errorf("family %q missing from Families() = %s", c.spec.Family, registered)
		}
	}
}

func TestSpecValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		spec loloha.ProtocolSpec
		want string
	}{
		{"unknown family", loloha.ProtocolSpec{Family: "nope", K: 4, EpsInf: 1, Eps1: 0.5},
			"unknown protocol family"},
		{"empty family", loloha.ProtocolSpec{K: 4}, "no family"},
		{"missing required eps1", loloha.ProtocolSpec{Family: "RAPPOR", K: 10, EpsInf: 1},
			`requires spec field "eps1"`},
		{"foreign field g", loloha.ProtocolSpec{Family: "RAPPOR", K: 10, G: 3, EpsInf: 1, Eps1: 0.5},
			`does not take spec field "g"`},
		{"BiLOLOHA pins g", loloha.ProtocolSpec{Family: "BiLOLOHA", K: 10, G: 3, EpsInf: 1, Eps1: 0.5},
			"fixes g = 2"},
		{"1BitFlipPM pins d", loloha.ProtocolSpec{Family: "1BitFlipPM", K: 10, B: 5, D: 4, EpsInf: 1},
			"fixes d = 1"},
		{"dBit bucket bounds", loloha.ProtocolSpec{Family: "dBitFlipPM", K: 4, B: 8, D: 2, EpsInf: 1},
			"2 <= b <= k"},
		{"swapped budgets", loloha.ProtocolSpec{Family: "L-GRR", K: 10, EpsInf: 0.5, Eps1: 1},
			"0 < eps1 < epsInf"},
	}
	for _, c := range cases {
		_, err := c.spec.Build()
		if err == nil {
			t.Errorf("%s: spec %+v accepted", c.name, c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// The unknown-family error enumerates what IS registered.
	_, err := loloha.ProtocolSpec{Family: "nope", K: 4}.Build()
	for _, want := range []string{"RAPPOR", "BiLOLOHA", "dBitFlipPM"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-family error %q does not list %s", err, want)
		}
	}
}

func TestSpecParseStrictness(t *testing.T) {
	if _, err := loloha.ParseSpec([]byte(`{"family":"RAPPOR","k":10,"epsilon":1}`)); err == nil {
		t.Error("unknown JSON field accepted")
	}
	if _, err := loloha.ParseSpec([]byte(`{"family":"RAPPOR","k":10} trailing`)); err == nil {
		t.Error("trailing data accepted")
	}
	specs, err := loloha.ParseSpecs([]byte(`{"family":"L-GRR","k":8,"eps_inf":1,"eps1":0.5}`))
	if err != nil || len(specs) != 1 {
		t.Fatalf("single-object list: %v %v", specs, err)
	}
	specs, err = loloha.ParseSpecs([]byte(`[{"family":"L-GRR","k":8},{"family":"RAPPOR","k":8}]`))
	if err != nil || len(specs) != 2 {
		t.Fatalf("array list: %v %v", specs, err)
	}
}

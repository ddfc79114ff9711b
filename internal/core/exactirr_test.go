package core

import (
	"math"
	"testing"

	"github.com/loloha-ldp/loloha/internal/domain"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

func TestExactIRROptionWiring(t *testing.T) {
	paper, err := New(100, 8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := New(100, 8, 4, 2, WithExactIRRCalibration())
	if err != nil {
		t.Fatal(err)
	}
	if exact.EpsIRR() <= paper.EpsIRR() {
		t.Errorf("exact εIRR %v not above paper %v for g=8", exact.EpsIRR(), paper.EpsIRR())
	}
	// At g = 2 both calibrations coincide.
	p2, _ := New(100, 2, 4, 2)
	e2, err := New(100, 2, 4, 2, WithExactIRRCalibration())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p2.EpsIRR()-e2.EpsIRR()) > 1e-9 {
		t.Errorf("g=2: exact %v != paper %v", e2.EpsIRR(), p2.EpsIRR())
	}
}

func TestExactIRRVarianceStrictlyBetter(t *testing.T) {
	paper, _ := New(100, 8, 4, 2)
	exact, _ := New(100, 8, 4, 2, WithExactIRRCalibration())
	const n = 10000
	if exact.ApproxVariance(n) >= paper.ApproxVariance(n) {
		t.Errorf("exact V* %v not below paper %v",
			exact.ApproxVariance(n), paper.ApproxVariance(n))
	}
}

func TestExactIRREndToEndStillUnbiased(t *testing.T) {
	// The ablation must preserve estimator correctness, not just improve
	// variance: run a full collection and compare against truth.
	const k, n = 16, 25000
	proto, err := New(k, 8, 4, 2, WithExactIRRCalibration())
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int, n)
	for u := range values {
		values[u] = (u * 3) % k
	}
	truth := domain.TrueFrequencies(values, k)
	clients := make([]*Client, n)
	for u := range clients {
		clients[u] = proto.newClient(randsrc.Derive(5, uint64(u)))
	}
	agg := proto.NewServer()
	for u, v := range values {
		tally(t, proto, agg, u, clients[u], v)
	}
	est := agg.EndRound()
	sd := math.Sqrt(proto.ApproxVariance(n))
	for v := 0; v < k; v++ {
		if math.Abs(est[v]-truth[v]) > 6*sd+0.01 {
			t.Errorf("est[%d] = %v, truth %v (sd %v)", v, est[v], truth[v], sd)
		}
	}
}

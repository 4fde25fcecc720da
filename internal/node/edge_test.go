package node

import (
	"math"
	"testing"
)

// The runtime applies the library's input contract at its edge: a row has
// the site's dimension and a finite, positive squared norm; a weight or a
// report value is finite and positive. Anything else is an error that
// changes no state, so one bad input cannot wedge a site (a NaN W_i never
// reaches the threshold again) or crash the eigensolver.

func TestMatSiteRefusesNonFiniteRows(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, fast := range []bool{false, true} {
		newCluster := NewLocalMatCluster
		if fast {
			newCluster = NewLocalMatClusterFast
		}
		cl, err := newCluster(2, 0.2, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range [][]float64{
			{nan, 1, 1}, {inf, 1, 1}, {1, -inf, 1}, {1e200, 0, 0}, {0, 0, 0}, {1, 1},
		} {
			if err := cl.Feed(0, row); err == nil {
				t.Errorf("fast=%v: Feed(%v) accepted", fast, row)
			}
			if err := cl.FeedRows(0, [][]float64{{1, 2, 3}, row}); err == nil {
				t.Errorf("fast=%v: FeedRows with %v accepted", fast, row)
			}
		}
		if got := cl.Coordinator.Received(); got != 0 {
			t.Fatalf("fast=%v: coordinator received %d messages from refused rows", fast, got)
		}
		// The sites are unharmed: good rows still flow and report.
		for i := 0; i < 50; i++ {
			if err := cl.Feed(i%2, []float64{1, float64(i), 2}); err != nil {
				t.Fatalf("fast=%v: good row after refusals: %v", fast, err)
			}
		}
		if f := cl.Coordinator.EstimateFrobenius(); math.IsNaN(f) || math.IsInf(f, 0) || f <= 1 {
			t.Fatalf("fast=%v: F̂ = %v after good rows", fast, f)
		}
	}
}

func TestHHSiteRefusesNonFiniteWeights(t *testing.T) {
	cl, err := NewLocalHHCluster(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if err := cl.Feed(0, 7, w); err == nil {
			t.Errorf("Feed with weight %v accepted", w)
		}
	}
	// Site 0's unsent W_i stayed finite, so it still reports.
	for i := 0; i < 100; i++ {
		if err := cl.Feed(0, 7, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.Coordinator.EstimateTotal(); got < 90 || math.IsNaN(got) {
		t.Fatalf("Ŵ = %v after 100 unit items, want ≈ 100", got)
	}
}

func TestCoordinatorsRefuseNonFiniteReports(t *testing.T) {
	drop := SenderFunc(func(Message) error { return nil })
	mc, err := NewMatCoordinator(2, 0.2, 3, drop)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := NewHHCoordinator(2, 0.2, drop)
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		h  CoordinatorHandler
		ms Message
	}{
		{mc, Message{Kind: KindTotal, Value: nan}},
		{mc, Message{Kind: KindTotal, Value: inf}},
		{mc, Message{Kind: KindTotal, Value: -1}},
		{mc, Message{Kind: KindRow, Vec: []float64{nan, 0, 0}}},
		{mc, Message{Kind: KindRow, Vec: []float64{0, -inf, 0}}},
		{hc, Message{Kind: KindTotal, Value: nan}},
		{hc, Message{Kind: KindElement, Elem: 3, Value: inf}},
		{hc, Message{Kind: KindElement, Elem: 3, Value: -2}},
	} {
		if err := c.h.Handle(c.ms); err == nil {
			t.Errorf("%T accepted %+v", c.h, c.ms)
		}
	}
	if mc.Received() != 0 || hc.Received() != 0 {
		t.Fatalf("refused reports were counted: %d, %d", mc.Received(), hc.Received())
	}
	if f, w := mc.EstimateFrobenius(), hc.EstimateTotal(); f != 1 || w != 1 {
		t.Fatalf("estimates moved on refused reports: F̂ %v, Ŵ %v", f, w)
	}
}

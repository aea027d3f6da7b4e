package machspace

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"fgp/internal/experiments"
	"fgp/internal/kernels"
	"fgp/internal/sim"
)

func TestNormalizeFillsPaperDefaults(t *testing.T) {
	g, err := Grid{}.Normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	pts := g.Points()
	if len(pts) != 1 || g.Size() != 1 {
		t.Fatalf("empty grid should enumerate exactly the paper point, got %d", len(pts))
	}
	def := sim.DefaultConfig(4)
	want := Point{
		Cores: 4, QueueLen: def.QueueLen, TransferLatency: def.TransferLatency,
		EnqCost: def.Cost.Enq, DeqCost: def.Cost.Deq,
		L1Lines: def.Cache.Lines, L1Hit: def.Cost.L1Hit, L1Miss: def.Cost.L1Miss,
	}
	if pts[0] != want {
		t.Fatalf("paper point = %+v, want %+v", pts[0], want)
	}
	if pts[0].Validate() != nil {
		t.Fatalf("paper point must validate: %v", pts[0].Validate())
	}
}

func TestNormalizeRejectsBadAxes(t *testing.T) {
	cases := []struct {
		grid Grid
		axis string
	}{
		{Grid{Cores: []int{0}}, "cores"},
		{Grid{Cores: []int{17}}, "cores"},
		{Grid{QueueLen: []int{0}}, "queue_len"},
		{Grid{QueueLen: []int{1 << 13}}, "queue_len"},
		{Grid{TransferLatency: []int64{-1}}, "transfer_latency"},
		{Grid{EnqCost: []int64{-2}}, "enq_cost"},
		{Grid{DeqCost: []int64{1 << 21}}, "deq_cost"},
		{Grid{L1Lines: []int{-1}}, "l1_lines"},
		{Grid{L1Hit: []int64{-1}}, "l1_hit"},
		{Grid{L1Miss: []int64{-5}}, "l1_miss"},
	}
	for _, c := range cases {
		_, err := c.grid.Normalize(16)
		var ge *GridError
		if !errors.As(err, &ge) {
			t.Fatalf("grid %+v: want *GridError, got %v", c.grid, err)
		}
		if ge.Axis != c.axis {
			t.Errorf("grid %+v: rejected axis %q, want %q", c.grid, ge.Axis, c.axis)
		}
		if !errors.Is(err, ErrBadGrid) {
			t.Errorf("grid %+v: error does not wrap ErrBadGrid", c.grid)
		}
	}
}

func TestPointOrderIsDeterministic(t *testing.T) {
	g, err := Grid{
		QueueLen:        []int{20, 4},
		TransferLatency: []int64{0, 5},
	}.Normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	pts := g.Points()
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	// Axis values keep caller order; later axes vary faster.
	wantQ := []int{20, 20, 4, 4}
	wantL := []int64{0, 5, 0, 5}
	for i, p := range pts {
		if p.QueueLen != wantQ[i] || p.TransferLatency != wantL[i] {
			t.Fatalf("point %d = %+v, want q=%d lat=%d", i, p, wantQ[i], wantL[i])
		}
	}
}

func TestHWCostMonotone(t *testing.T) {
	base := func() Point {
		g, _ := Grid{}.Normalize(0)
		return g.Points()[0]
	}
	// Each favorable change must strictly raise the cost.
	mods := []struct {
		name string
		mod  func(*Point)
	}{
		{"more cores", func(p *Point) { p.Cores++ }},
		{"deeper queues", func(p *Point) { p.QueueLen += 4 }},
		{"faster transfer", func(p *Point) { p.TransferLatency = 0 }},
		{"free enqueue", func(p *Point) { p.EnqCost = 0 }},
		{"free dequeue", func(p *Point) { p.DeqCost = 0 }},
		{"bigger L1", func(p *Point) { p.L1Lines *= 2 }},
		{"faster L1 hit", func(p *Point) { p.L1Hit = 0 }},
		{"faster L1 miss", func(p *Point) { p.L1Miss = 10 }},
	}
	for _, m := range mods {
		p := base()
		before := p.HWCost()
		m.mod(&p)
		if after := p.HWCost(); after <= before {
			t.Errorf("%s: cost %d -> %d, want strictly higher", m.name, before, after)
		}
	}
}

func TestSweepBudgetRefusesBigGrid(t *testing.T) {
	g := Grid{
		QueueLen:        []int{1, 2, 4, 8, 20, 64},
		TransferLatency: []int64{0, 1, 2, 5, 20, 50, 100},
		EnqCost:         []int64{0, 1, 2, 4},
		DeqCost:         []int64{0, 1, 2, 4},
	}
	k, err := kernels.ByName("sphot-1")
	if err != nil {
		t.Fatal(err)
	}
	_, serr := Sweep(context.Background(), experiments.NewRunner(), k, g, Options{})
	var be *BudgetError
	if !errors.As(serr, &be) {
		t.Fatalf("want *BudgetError, got %v", serr)
	}
	if want := 6 * 7 * 4 * 4; be.Points != want || be.Budget != DefaultBudget {
		t.Fatalf("budget error = %+v, want points=%d budget=%d", be, want, DefaultBudget)
	}
	if !errors.Is(serr, ErrBudget) {
		t.Fatal("budget error does not wrap ErrBudget")
	}
}

// sweepGrid is the small cross grid the determinism and frontier tests
// share: 2 queue capacities x 3 transfer latencies x 2 enqueue costs, with
// the zero-valued levers included literally.
func sweepGrid() Grid {
	return Grid{
		QueueLen:        []int{4, 20},
		TransferLatency: []int64{0, 5, 50},
		EnqCost:         []int64{0, 1},
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	k, err := kernels.ByName("sphot-1")
	if err != nil {
		t.Fatal(err)
	}
	var surfaces [][]byte
	for _, workers := range []int{1, 4} {
		// A fresh runner per worker count: byte-identity must not depend on
		// a shared artifact cache.
		s, err := Sweep(context.Background(), experiments.NewRunner(), k, sweepGrid(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		surfaces = append(surfaces, data)
	}
	if string(surfaces[0]) != string(surfaces[1]) {
		t.Fatalf("surface differs between workers=1 and workers=4:\n%s\nvs\n%s", surfaces[0], surfaces[1])
	}
}

func TestSweepZeroLatencyIsARealLever(t *testing.T) {
	k, err := kernels.ByName("umt2k-4")
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{TransferLatency: []int64{0, 5}}
	s, err := Sweep(context.Background(), experiments.NewRunner(), k, g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 || !s.Points[0].OK() || !s.Points[1].OK() {
		t.Fatalf("want 2 simulated points, got %+v", s.Points)
	}
	if s.Points[0].Cycles >= s.Points[1].Cycles {
		t.Fatalf("zero-latency transfer must be strictly faster: lat=0 %d cycles vs lat=5 %d",
			s.Points[0].Cycles, s.Points[1].Cycles)
	}
}

func TestSweepSeqBaselineTracksL1(t *testing.T) {
	k, err := kernels.ByName("sphot-1")
	if err != nil {
		t.Fatal(err)
	}
	// L1 disabled (every load hits) vs a 4-line thrash cache: the
	// sequential baseline must be re-measured per L1 setting.
	g := Grid{L1Lines: []int{0, 4}}
	s, err := Sweep(context.Background(), experiments.NewRunner(), k, g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Points[0].OK() || !s.Points[1].OK() {
		t.Fatalf("both points must simulate: %+v", s.Points)
	}
	if s.Points[0].SeqCycles >= s.Points[1].SeqCycles {
		t.Fatalf("disabled-L1 baseline (%d) must beat 4-line baseline (%d)",
			s.Points[0].SeqCycles, s.Points[1].SeqCycles)
	}
}

func TestParetoAndInverseQuery(t *testing.T) {
	k, err := kernels.ByName("umt2k-4")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Sweep(context.Background(), experiments.NewRunner(), k, sweepGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	frontier := s.Pareto()
	if len(frontier) == 0 {
		t.Fatal("empty frontier")
	}
	// Strictly ascending in both cost and speedup: each step buys speedup.
	for i := 1; i < len(frontier); i++ {
		if frontier[i].HWCost <= frontier[i-1].HWCost {
			t.Errorf("frontier cost not strictly ascending at %d: %d then %d", i, frontier[i-1].HWCost, frontier[i].HWCost)
		}
		if frontier[i].Speedup <= frontier[i-1].Speedup {
			t.Errorf("frontier speedup not strictly ascending at %d: %f then %f", i, frontier[i-1].Speedup, frontier[i].Speedup)
		}
	}
	// No surface point may dominate a frontier point.
	for _, f := range frontier {
		for i := range s.Points {
			p := &s.Points[i]
			if !p.OK() {
				continue
			}
			if (p.HWCost < f.HWCost && p.Speedup >= f.Speedup) ||
				(p.HWCost <= f.HWCost && p.Speedup > f.Speedup) {
				t.Errorf("frontier point %+v dominated by %+v", f, *p)
			}
		}
	}

	// Inverse query: the cheapest point at the frontier's median speedup
	// must cost no more than any point reaching it.
	target := frontier[len(frontier)/2].Speedup
	got, ok := s.Minimal(target)
	if !ok {
		t.Fatalf("target %f unreachable but frontier contains it", target)
	}
	for i := range s.Points {
		p := &s.Points[i]
		if p.OK() && p.Speedup >= target && p.HWCost < got.HWCost {
			t.Errorf("Minimal(%f) = cost %d, but %+v is cheaper", target, got.HWCost, *p)
		}
	}

	// Unreachable target: structured miss, and Best names the ceiling.
	if _, ok := s.Minimal(1000); ok {
		t.Fatal("speedup 1000 should be unreachable")
	}
	best, ok := s.Best()
	if !ok {
		t.Fatal("Best found nothing")
	}
	if wantBest := frontier[len(frontier)-1].Speedup; best.Speedup != wantBest {
		t.Errorf("Best speedup %f, want frontier max %f", best.Speedup, wantBest)
	}
}

func TestSweepRejectsDegeneratePointStructurally(t *testing.T) {
	k, err := kernels.ByName("sphot-1")
	if err != nil {
		t.Fatal(err)
	}
	// l1_lines 3 with the default 64-byte line is representable in the
	// grid envelope but not a power-of-two geometry problem — it IS valid.
	// The genuinely degenerate shape reachable through a normalized grid is
	// exercised via Point.Validate directly: grids cannot spell a negative
	// latency (Normalize rejects it), so a hand-built point stands in.
	p := Point{Cores: 2, QueueLen: 0, TransferLatency: 5, EnqCost: 1, DeqCost: 1, L1Lines: 512, L1Hit: 4, L1Miss: 46}
	var ce *sim.ConfigError
	if err := p.Validate(); !errors.As(err, &ce) || ce.Field != "QueueLen" {
		t.Fatalf("want *sim.ConfigError on QueueLen, got %v", err)
	}

	// And a queue-capacity-1 sweep point must either simulate correctly or
	// be recorded as a structured rejection — never fail the sweep.
	g := Grid{QueueLen: []int{1}}
	s, err := Sweep(context.Background(), experiments.NewRunner(), k, g, Options{Workers: 1})
	if err != nil {
		t.Fatalf("sweep must survive a capacity-1 point: %v", err)
	}
	pt := &s.Points[0]
	if pt.OK() {
		if pt.Speedup <= 0 {
			t.Fatalf("capacity-1 point simulated but speedup = %f", pt.Speedup)
		}
	} else if pt.Reject == "" {
		t.Fatal("capacity-1 point neither simulated nor diagnosed")
	}
}

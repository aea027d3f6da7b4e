package experiments

import (
	"fmt"
	"strings"

	"fgp/internal/core"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/kernels/tier2"
)

// SearchRow reports the partition-search experiment for one kernel at one
// core count: the simulated cycle count of the paper-heuristic partition,
// the cycle count of the searched partition (never larger, by
// construction), and how many candidates the search scored to find it.
// Both cycle counts come from the threaded engine, the search objective.
type SearchRow struct {
	Name            string
	Cores           int
	HeuristicCycles int64
	SearchedCycles  int64
	Explored        int
}

// Gain is the fractional cycle reduction vs the heuristic (0.1 = 10%).
func (r SearchRow) Gain() float64 {
	if r.HeuristicCycles == 0 {
		return 0
	}
	return float64(r.HeuristicCycles-r.SearchedCycles) / float64(r.HeuristicCycles)
}

// SearchConfig bounds the partition-search experiment.
type SearchConfig struct {
	// Budget is the per-kernel candidate budget (0 = search.DefaultBudget).
	Budget int
	// Seed seeds the annealing phase; the whole report is deterministic in
	// (Seed, Budget).
	Seed int64
	// Cores lists the core counts to search at (nil = {2, 4}).
	Cores []int
	// Tier2 includes the committed tier-2 source corpus after the tier-1
	// catalog.
	Tier2 bool
}

// searchItem is one (kernel, cores) cell of the experiment.
type searchItem struct {
	name  string
	build func() (*ir.Loop, error)
	cores int
}

// Search runs the partitioning-as-search experiment: every kernel is
// compiled with Options.Partitioner = "search" and the per-kernel
// heuristic-vs-searched cycle counts are read off the compile report. Rows
// come back in catalog order (tier-1 first, then tier-2 when enabled),
// core counts ascending within a kernel.
func Search(r *Runner, cfg SearchConfig) ([]SearchRow, error) {
	coresList := cfg.Cores
	if len(coresList) == 0 {
		coresList = []int{2, 4}
	}
	var items []searchItem
	for _, k := range kernels.All() {
		k := k
		for _, c := range coresList {
			items = append(items, searchItem{k.Name, func() (*ir.Loop, error) { return k.Build(), nil }, c})
		}
	}
	if cfg.Tier2 {
		t2, err := tier2.All()
		if err != nil {
			return nil, err
		}
		for _, k := range t2 {
			k := k
			for _, c := range coresList {
				items = append(items, searchItem{k.Name, k.Build, c})
			}
		}
	}
	rows := make([]SearchRow, len(items))
	err := r.each(len(items), func(i int) error {
		it := items[i]
		l, err := it.build()
		if err != nil {
			return err
		}
		opt := core.DefaultOptions(it.cores)
		opt.Partitioner = core.PartitionerSearch
		opt.SearchBudget = cfg.Budget
		opt.SearchSeed = cfg.Seed
		opt.SearchWorkers = 1 // the items already run from the runner's pool
		a, err := core.Compile(l, opt)
		if err != nil {
			return fmt.Errorf("experiments: search %s (%d cores): %w", it.name, it.cores, err)
		}
		rep := a.Report
		rows[i] = SearchRow{
			Name:            it.name,
			Cores:           it.cores,
			HeuristicCycles: rep.SearchBaselineCycles,
			SearchedCycles:  rep.SearchCycles,
			Explored:        rep.SearchExplored,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatSearch renders the experiment as the per-kernel table the golden
// report commits.
func FormatSearch(rows []SearchRow) string {
	var sb strings.Builder
	sb.WriteString("Partitioning as search: heuristic seed vs searched partition (threaded-engine cycles)\n")
	sb.WriteString(fmt.Sprintf("%-16s %5s %10s %10s %8s %9s\n", "kernel", "cores", "heuristic", "searched", "gain", "explored"))
	improved := 0
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-16s %5d %10d %10d %7.2f%% %9d\n",
			r.Name, r.Cores, r.HeuristicCycles, r.SearchedCycles, 100*r.Gain(), r.Explored))
		if r.SearchedCycles < r.HeuristicCycles {
			improved++
		}
	}
	sb.WriteString(fmt.Sprintf("improved %d of %d kernel/core cells; searched cycles never exceed heuristic cycles by construction\n", improved, len(rows)))
	return sb.String()
}

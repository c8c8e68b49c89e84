package main

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/stats"
)

// fidelity renders the model-fidelity table: the simulated prefetch
// speedups at 8 SPEs and the Figure 5a memory-stall shares next to the
// paper's published values. The paper's numbers come from CellSim, a
// simulator; this model is not validated against Cell hardware, so the
// differences are model-to-model, not model-to-hardware. Runs of the
// other mode (prefetching or not) happen here, outside the window.
func fidelity(pool *cell.Pool, seed uint64, pf bool, pass0 []*cell.Result, points []point) ([]string, error) {
	if len(pass0) != len(points) {
		return []string{"model fidelity: skipped, pass 0 had failures"}, nil
	}
	lines := []string{
		"model fidelity: this model vs the paper's CellSim numbers (seed " + fmt.Sprint(seed) +
			"); the model is unvalidated against Cell hardware",
		fmt.Sprintf("  %-38s %5s %9s %7s %9s", "quantity", "lat", "model", "paper", "diff"),
	}
	paperSpeedup := map[string]float64{"zoom": 11, "mmul": 14}
	paperStall := map[string]float64{"bitcnt": 58, "mmul": 94, "zoom": 92}
	for _, bench := range []string{"zoom", "mmul", "bitcnt"} {
		for _, lat := range []int{150, 600} {
			i := indexOf(points, bench, 8, lat)
			if i < 0 {
				return nil, fmt.Errorf("fidelity: no 8-SPE %s point at latency %d", bench, lat)
			}
			other, err := simulate(nil, nil, 0, pool, points[i], seed, !pf)
			if err != nil {
				return nil, fmt.Errorf("fidelity %s: %w", points[i], err)
			}
			orig, pfRes := pass0[i], other
			if pf {
				orig, pfRes = other, pass0[i]
			}
			speedup := float64(orig.Cycles) / float64(pfRes.Cycles)
			paper, ok := paperSpeedup[bench]
			lines = append(lines, fidelityRow(bench+" prefetch speedup, 8 SPEs", lat,
				fmt.Sprintf("%.2fx", speedup), paper, ok && lat == 150, speedup-paper, "x"))
			if lat == 150 {
				stall := orig.AvgBreakdownPct()[stats.MemStall]
				lines = append(lines, fidelityRow("fig5a "+bench+" memory stalls, no prefetch", lat,
					fmt.Sprintf("%.1f%%", stall), paperStall[bench], true, stall-paperStall[bench], "pt"))
			}
		}
	}
	return append(lines, "  (paper: zoom 11x from the abstract, mmul ~14x and the fig5a stalls from EXPERIMENTS.md; none published for bitcnt's speedup or latency 600)"), nil
}

func fidelityRow(what string, lat int, model string, paper float64, havePaper bool, diff float64, unit string) string {
	if !havePaper {
		return fmt.Sprintf("  %-38s %5d %9s %7s %9s", what, lat, model, "-", "-")
	}
	return fmt.Sprintf("  %-38s %5d %9s %7g %+8.2f%s", what, lat, model, paper, diff, unit)
}

func indexOf(points []point, bench string, spes, lat int) int {
	for i, p := range points {
		if p.bench == bench && p.spes == spes && p.latency == lat {
			return i
		}
	}
	return -1
}

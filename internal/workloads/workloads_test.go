package workloads

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/prefetch"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/synth"
)

func runProg(t *testing.T, spes int, p *program.Program) *cell.Result {
	t.Helper()
	cfg := cell.DefaultConfig()
	cfg.SPEs = spes
	cfg.MaxCycles = 100_000_000
	m, err := cell.New(cfg, p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.CheckErr != nil {
		t.Fatalf("functional check failed: %v", res.CheckErr)
	}
	return res
}

// buildBoth returns the original and prefetching versions of a workload.
func buildBoth(t *testing.T, name string, p Params) (*program.Program, *program.Program) {
	t.Helper()
	w, ok := Get(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	orig, err := w.Build(p)
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	pf, err := prefetch.Transform(orig)
	if err != nil {
		t.Fatalf("Transform(%s): %v", name, err)
	}
	return orig, pf
}

func TestRegistry(t *testing.T) {
	want := []string{"bitcnt", "mmul", "stencil", "vecsum", "zoom"}
	var hand []string
	synthCount := 0
	for _, n := range Names() {
		if strings.HasPrefix(n, "synth/") {
			synthCount++
			continue
		}
		hand = append(hand, n)
	}
	if len(hand) != len(want) {
		t.Fatalf("hand-built names = %v", hand)
	}
	for i := range want {
		if hand[i] != want[i] {
			t.Fatalf("hand-built names = %v, want %v", hand, want)
		}
	}
	if synthCount != synth.CorpusSize {
		t.Fatalf("%d synth workloads registered, want %d", synthCount, synth.CorpusSize)
	}
	if _, ok := Get(synth.ExperimentID(1)); !ok {
		t.Fatal("synth corpus workload not addressable by name")
	}
	if _, ok := Get("nonesuch"); ok {
		t.Fatal("Get accepted unknown name")
	}
}

// TestSynthWorkloadBuilds: registry-built synth scenarios validate,
// transform and run like any other workload.
func TestSynthWorkloadBuilds(t *testing.T) {
	w, ok := Get(synth.ExperimentID(2))
	if !ok {
		t.Fatal("synth/0002 not registered")
	}
	_, pf := buildBoth(t, w.Name, Params{Seed: 42})
	runProg(t, 2, pf)
}

func TestAutoWorkers(t *testing.T) {
	cases := []struct{ spes, max, want int }{
		{1, 32, 2},
		{2, 32, 4},
		{8, 32, 16},
		{8, 8, 8},
		{8, 100, 16},
	}
	for _, c := range cases {
		if got := AutoWorkers(c.spes, c.max); got != c.want {
			t.Errorf("AutoWorkers(%d,%d) = %d, want %d", c.spes, c.max, got, c.want)
		}
	}
}

func TestMmulSmallBothVariants(t *testing.T) {
	orig, pf := buildBoth(t, "mmul", Params{N: 8, Workers: 4, Seed: 1})
	a := runProg(t, 2, orig)
	b := runProg(t, 2, pf)
	if a.Tokens[0] != b.Tokens[0] {
		t.Fatalf("checksum differs: %d vs %d", a.Tokens[0], b.Tokens[0])
	}
	// READ counts: 2*n^3 for the original, 0 for prefetched.
	if a.Agg.Instr.Read != 2*8*8*8 {
		t.Fatalf("orig reads = %d, want %d", a.Agg.Instr.Read, 2*8*8*8)
	}
	if b.Agg.Instr.Read != 0 {
		t.Fatalf("prefetched reads = %d, want 0", b.Agg.Instr.Read)
	}
	// WRITE count: n^2 in both.
	if a.Agg.Instr.Write != 64 || b.Agg.Instr.Write != 64 {
		t.Fatalf("writes = %d/%d, want 64", a.Agg.Instr.Write, b.Agg.Instr.Write)
	}
	if b.Cycles >= a.Cycles {
		t.Fatalf("prefetching did not speed up mmul: %d vs %d", b.Cycles, a.Cycles)
	}
}

func TestZoomSmallBothVariants(t *testing.T) {
	orig, pf := buildBoth(t, "zoom", Params{N: 8, Workers: 4, Seed: 2})
	a := runProg(t, 2, orig)
	b := runProg(t, 2, pf)
	if a.Tokens[0] != b.Tokens[0] {
		t.Fatalf("checksum differs")
	}
	out := 8 * ZoomFactor * 8 * ZoomFactor
	if a.Agg.Instr.Read != int64(2*out) {
		t.Fatalf("orig reads = %d, want %d", a.Agg.Instr.Read, 2*out)
	}
	if a.Agg.Instr.Write != int64(out) || b.Agg.Instr.Write != int64(out) {
		t.Fatalf("writes = %d/%d, want %d", a.Agg.Instr.Write, b.Agg.Instr.Write, out)
	}
	if b.Agg.Instr.Read != 0 {
		t.Fatalf("prefetched reads = %d, want 0", b.Agg.Instr.Read)
	}
}

func TestBitcntSmallBothVariants(t *testing.T) {
	orig, pf := buildBoth(t, "bitcnt", Params{N: 200, Chunk: 8, Seed: 3})
	a := runProg(t, 2, orig)
	b := runProg(t, 2, pf)
	if a.Tokens[0] != b.Tokens[0] {
		t.Fatalf("count differs: %d vs %d", a.Tokens[0], b.Tokens[0])
	}
	// Original: 10 READs per value (1 load + 4 table + 5 masks).
	if a.Agg.Instr.Read != 10*200 {
		t.Fatalf("orig reads = %d, want 2000", a.Agg.Instr.Read)
	}
	// Prefetched: only the 4 table lookups stay blocking (40%).
	if b.Agg.Instr.Read != 4*200 {
		t.Fatalf("prefetched reads = %d, want 800", b.Agg.Instr.Read)
	}
	st := prefetch.Analyze(orig, pf)
	frac := st.DecoupledFraction()
	if frac < 0.55 || frac > 0.70 {
		t.Fatalf("static decoupled fraction = %.2f, want ~0.6 (paper: 62%%)", frac)
	}
}

// TestAnalyzeDecoupledCounts pins the static decoupling the prefetch
// pass reports at the harness's quick sizes: every global READ of mmul
// and zoom is rewritten (their annotated WRITEs are not READs and must
// not count), and bitcnt keeps its four table lookups blocking.
func TestAnalyzeDecoupledCounts(t *testing.T) {
	for _, tc := range []struct {
		name           string
		p              Params
		rewritten, all int
	}{
		{"mmul", Params{N: 16, Workers: AutoWorkers(8, 32), Seed: 42}, 2, 2},
		{"zoom", Params{N: 16, Workers: AutoWorkers(8, 32), Seed: 42}, 2, 2},
		{"bitcnt", Params{N: 400, Seed: 42}, 6, 10},
	} {
		orig, pf := buildBoth(t, tc.name, tc.p)
		st := prefetch.Analyze(orig, pf)
		if st.ReadsRewritten != tc.rewritten || st.ReadsTotal != tc.all {
			t.Fatalf("%s: %d/%d READs decoupled, want %d/%d",
				tc.name, st.ReadsRewritten, st.ReadsTotal, tc.rewritten, tc.all)
		}
		if f := st.DecoupledFraction(); f > 1 {
			t.Fatalf("%s: decoupled fraction %v > 1", tc.name, f)
		}
	}
}

func TestVecsumBothVariants(t *testing.T) {
	orig, pf := buildBoth(t, "vecsum", Params{N: 256, Workers: 4, Seed: 4})
	a := runProg(t, 2, orig)
	b := runProg(t, 2, pf)
	if a.Tokens[0] != b.Tokens[0] {
		t.Fatalf("sum differs")
	}
	if b.Agg.Instr.Read != 0 {
		t.Fatalf("prefetched reads = %d", b.Agg.Instr.Read)
	}
}

// The paper's headline table: instruction-count shape at full size.
// mmul(32): READ = 2*32^3 = 65536, WRITE = 1024 (Table 5).
func TestMmulPaperSizeInstructionCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size run")
	}
	orig, _ := buildBoth(t, "mmul", Params{N: 32, Workers: 16, Seed: 5})
	res := runProg(t, 8, orig)
	if res.Agg.Instr.Read != 65536 {
		t.Fatalf("READ = %d, want 65536 (paper Table 5)", res.Agg.Instr.Read)
	}
	if res.Agg.Instr.Write != 1024 {
		t.Fatalf("WRITE = %d, want 1024 (paper Table 5)", res.Agg.Instr.Write)
	}
}

// zoom(32): READ = 32768, WRITE = 16384 (Table 5).
func TestZoomPaperSizeInstructionCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size run")
	}
	orig, _ := buildBoth(t, "zoom", Params{N: 32, Workers: 16, Seed: 6})
	res := runProg(t, 8, orig)
	if res.Agg.Instr.Read != 32768 {
		t.Fatalf("READ = %d, want 32768 (paper Table 5)", res.Agg.Instr.Read)
	}
	if res.Agg.Instr.Write != 16384 {
		t.Fatalf("WRITE = %d, want 16384 (paper Table 5)", res.Agg.Instr.Write)
	}
}

func TestBitcntScalesWorkersWithThreads(t *testing.T) {
	// Thread counts: workers + reducers + spawners + joiner + root.
	orig, _ := buildBoth(t, "bitcnt", Params{N: 96, Chunk: 4, Seed: 7})
	res := runProg(t, 4, orig)
	workers := 96 / 4
	groups := (workers + groupMax - 1) / groupMax
	wantThreads := int64(workers + 2*groups + 2)
	if res.Agg.Threads != wantThreads {
		t.Fatalf("threads = %d, want %d", res.Agg.Threads, wantThreads)
	}
}

func TestWorkloadsAcrossSPECounts(t *testing.T) {
	for _, spes := range []int{1, 4, 8} {
		for _, name := range Names() {
			if strings.HasPrefix(name, "synth/") {
				continue // covered by the synth differential corpus
			}
			t.Run(fmt.Sprintf("%s-%dspe", name, spes), func(t *testing.T) {
				p := Params{N: 8, Workers: 4, Seed: 8}
				if name == "bitcnt" {
					p = Params{N: 64, Chunk: 8, Seed: 8}
				}
				if name == "vecsum" {
					p = Params{N: 64, Workers: 4, Seed: 8}
				}
				if name == "stencil" {
					p = Params{N: 10, Workers: 4, Seed: 8}
				}
				_, pf := buildBoth(t, name, p)
				runProg(t, spes, pf)
			})
		}
	}
}

func TestPrefetchingReducesMemStallsAtHighLatency(t *testing.T) {
	orig, pf := buildBoth(t, "mmul", Params{N: 16, Workers: 8, Seed: 9})
	cfg := cell.DefaultConfig()
	cfg.SPEs = 4
	cfg.MaxCycles = 100_000_000
	runWith := func(p *program.Program) *cell.Result {
		m, err := cell.New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.CheckErr != nil {
			t.Fatal(res.CheckErr)
		}
		return res
	}
	a, b := runWith(orig), runWith(pf)
	aStall := a.Agg.Breakdown.Percent(stats.MemStall)
	bStall := b.Agg.Breakdown.Percent(stats.MemStall)
	if bStall > aStall/4 {
		t.Fatalf("prefetching left %.1f%% memory stalls (original %.1f%%)", bStall, aStall)
	}
	if b.Agg.Breakdown[stats.Prefetch] == 0 {
		t.Fatal("no prefetch overhead recorded")
	}
}

func TestReferenceImplementations(t *testing.T) {
	// popcount table sanity.
	tbl := byteCountTable()
	if tbl[0] != 0 || tbl[255] != 8 || tbl[0x0F] != 4 {
		t.Fatalf("byte table wrong: %d %d %d", tbl[0], tbl[255], tbl[0x0F])
	}
	// refBitcount equals 5x popcount.
	vals := []int32{0, 1, 3, 0x7FFFFFFF}
	want := 5 * int64(0+1+2+31)
	if got := refBitcount(vals); got != want {
		t.Fatalf("refBitcount = %d, want %d", got, want)
	}
	// refMatMul identity.
	n := 4
	id := make([]int32, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	m := randomInt32s(n*n, 11)
	got := refMatMul(m, id, n)
	for i := range m {
		if got[i] != m[i] {
			t.Fatalf("A*I != A at %d", i)
		}
	}
	// refZoom preserves constant images.
	img := make([]int32, n*n)
	for i := range img {
		img[i] = 9
	}
	z := refZoom(img, n, 4)
	// Interior pixels stay 9; right-edge pixels lerp toward the zero pad.
	if z[0] != 9 || z[5] != 9 {
		t.Fatalf("zoom of constant image: %v", z[:8])
	}
	_ = bits.OnesCount32 // keep math/bits linked for clarity
}

func TestBuildParameterValidation(t *testing.T) {
	w, _ := Get("mmul")
	if _, err := w.Build(Params{N: 7, Workers: 4}); err == nil {
		t.Fatal("accepted non-power-of-two size")
	}
	if _, err := w.Build(Params{N: 8, Workers: 3}); err == nil {
		t.Fatal("accepted non-power-of-two workers")
	}
	wb, _ := Get("bitcnt")
	if _, err := wb.Build(Params{N: 0}); err == nil {
		t.Fatal("accepted zero iterations")
	}
}

func TestStencilBothVariants(t *testing.T) {
	orig, pf := buildBoth(t, "stencil", Params{N: 10, Workers: 4, Seed: 11})
	a := runProg(t, 2, orig)
	b := runProg(t, 2, pf)
	if a.Tokens[0] != b.Tokens[0] {
		t.Fatalf("checksum differs: %d vs %d", a.Tokens[0], b.Tokens[0])
	}
	// 9 reads per interior pixel.
	interior := int64(8 * 8)
	if a.Agg.Instr.Read != 9*interior {
		t.Fatalf("orig reads = %d, want %d", a.Agg.Instr.Read, 9*interior)
	}
	if b.Agg.Instr.Read != 0 {
		t.Fatalf("prefetched reads = %d, want 0", b.Agg.Instr.Read)
	}
	if b.Cycles >= a.Cycles {
		t.Fatalf("prefetching did not speed up stencil: %d vs %d", b.Cycles, a.Cycles)
	}
}

func TestStencilWriteBack(t *testing.T) {
	w, _ := Get("stencil")
	prog, err := w.Build(Params{N: 10, Workers: 4, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	wb, err := prefetch.TransformWithOptions(prog, prefetch.Options{WriteBack: true})
	if err != nil {
		t.Fatal(err)
	}
	res := runProg(t, 2, wb)
	if res.Agg.Instr.Write != 0 {
		t.Fatalf("write-back left %d WRITEs", res.Agg.Instr.Write)
	}
}

func TestStencilWorkerDivisorAdjustment(t *testing.T) {
	// interior 6 with 4 requested workers -> shrink to 3.
	orig, _ := buildBoth(t, "stencil", Params{N: 8, Workers: 4, Seed: 13})
	res := runProg(t, 2, orig)
	// threads: root + joiner + 3 workers.
	if res.Agg.Threads != 5 {
		t.Fatalf("threads = %d, want 5", res.Agg.Threads)
	}
}

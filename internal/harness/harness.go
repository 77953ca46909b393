// Package harness regenerates the REESE paper's evaluation: one
// experiment per table and figure (Tables 1-2, Figures 2-7), plus the
// paper's §6.1 claims, the fault-injection behaviour of §4.2-4.3, and
// the ablations DESIGN.md §8 calls out.
//
// Each experiment runs the six Table 2 workloads on a set of machine
// variants and renders the same rows/series the paper reports. Runs are
// deterministic; variants of one experiment run concurrently.
package harness

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/fu"
	"reese/internal/obs"
	"reese/internal/pipeline"
	"reese/internal/stats"
	"reese/internal/workload"
)

// Options control experiment scale.
type Options struct {
	// Insts is the committed-instruction budget per run. The paper ran
	// 100 M; the default 150k keeps a full figure under a second while
	// past the point where the IPC statistics stabilise for these
	// workloads.
	Insts uint64
	// Parallel bounds concurrent simulations on the shared worker pool
	// (0 = GOMAXPROCS, 1 = strictly sequential). Any setting produces
	// byte-identical results; it only changes wall-clock time.
	Parallel int
	// Ctx, when non-nil, cancels in-flight simulations: every run polls
	// it periodically (pipeline.RunContext) and the experiment returns
	// ctx.Err() instead of grinding through remaining cells. nil means
	// context.Background(). Carried in Options rather than as a separate
	// parameter so the dozens of experiment entry points keep one
	// signature.
	Ctx context.Context
	// Progress, when non-nil, accumulates committed-instruction deltas
	// from every in-flight simulation (pipeline.CPU.SetProgress) — the
	// watchdog heartbeat reese-serve samples to tell a slow experiment
	// from a hung one. The counter is cumulative and monotonic across
	// all cells of a grid or campaign.
	Progress *atomic.Uint64
}

// DefaultOptions returns the scale used by the test suite and benches.
func DefaultOptions() Options { return Options{Insts: 150_000} }

func (o Options) normalize() Options {
	if o.Insts == 0 {
		o.Insts = 150_000
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	return o
}

// Cell is one bar of a figure: a (workload, variant) IPC measurement.
type Cell struct {
	Workload string          `json:"workload"`
	Variant  string          `json:"variant"`
	Result   pipeline.Result `json:"result"`
}

// FigureResult is a regenerated figure: a grid of IPC values, one row
// per workload plus the average row the paper's analysis leans on.
// The JSON form (used by reese-serve and reese-sweep -json) is locked
// by the golden-file test in json_test.go.
type FigureResult struct {
	ID       string   `json:"id"`
	Title    string   `json:"title"`
	Variants []string `json:"variants"`
	// IPC[workload][variant] in the order of Workloads()/Variants.
	IPC       map[string]map[string]float64 `json:"ipc"`
	Workloads []string                      `json:"workloads"`
	Cells     []Cell                        `json:"cells,omitempty"`
}

// Average returns the across-workload mean IPC for the given variant.
func (f *FigureResult) Average(variant string) float64 {
	var xs []float64
	for _, w := range f.Workloads {
		xs = append(xs, f.IPC[w][variant])
	}
	return stats.Mean(xs)
}

// result returns the workload's result on the labelled variant.
func (f *FigureResult) result(workload, variant string) pipeline.Result {
	for _, c := range f.Cells {
		if c.Workload == workload && c.Variant == variant {
			return c.Result
		}
	}
	return pipeline.Result{}
}

// GapPercent returns how far variant's average IPC falls below the
// baseline variant's, in percent.
func (f *FigureResult) GapPercent(baseline, variant string) float64 {
	return stats.PercentDelta(f.Average(baseline), f.Average(variant))
}

// Stalls aggregates the slot-attribution ledger for one variant across
// every workload: summed counts keep the ledger invariant (used +
// stalls == slots), so percentages over the aggregate are workload-
// weighted rather than averaged.
func (f *FigureResult) Stalls(variant string) obs.StallBreakdown {
	var agg obs.StallBreakdown
	for _, c := range f.Cells {
		if c.Variant == variant {
			agg.Add(c.Result.Stalls)
		}
	}
	return agg
}

// StallTable renders the commit-slot attribution per variant: why each
// configuration's unused commit slots went unused, aggregated across
// workloads. The commit class is the one that explains an IPC gap — a
// commit slot not used is exactly an instruction not retired.
func (f *FigureResult) StallTable() string {
	headers := append([]string{"cause"}, f.Variants...)
	t := stats.NewTable(fmt.Sprintf("%s: commit-slot stall attribution (%% of slots)", f.ID), headers...)
	breakdowns := make([]obs.SlotBreakdown, len(f.Variants))
	for i, v := range f.Variants {
		breakdowns[i] = f.Stalls(v).Commit
	}
	row := []string{"(used)"}
	for _, b := range breakdowns {
		row = append(row, fmt.Sprintf("%.1f", b.UtilPct()))
	}
	t.AddRow(row...)
	for cause := obs.StallCause(1); cause < obs.NumCauses; cause++ {
		var any uint64
		for _, b := range breakdowns {
			any += b.Stalls[cause]
		}
		if any == 0 {
			continue
		}
		row := []string{cause.String()}
		for _, b := range breakdowns {
			if b.Stalls[cause] == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f", b.Pct(cause)))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Table renders the figure as an aligned text table with the AV row.
func (f *FigureResult) Table() string {
	headers := append([]string{"bench"}, f.Variants...)
	t := stats.NewTable(fmt.Sprintf("%s: %s (committed IPC)", f.ID, f.Title), headers...)
	for _, w := range f.Workloads {
		row := []string{w}
		for _, v := range f.Variants {
			row = append(row, fmt.Sprintf("%.3f", f.IPC[w][v]))
		}
		t.AddRow(row...)
	}
	avRow := []string{"AV"}
	for _, v := range f.Variants {
		avRow = append(avRow, fmt.Sprintf("%.3f", f.Average(v)))
	}
	t.AddRow(avRow...)
	return t.String()
}

// variant pairs a display label with a machine configuration.
type variant struct {
	label string
	cfg   config.Machine
}

// spareSet returns the five bar groups the paper's Figures 2-4 plot:
// baseline, REESE, and REESE with 1 ALU / 2 ALUs / 2 ALUs + 1 multiplier
// of spare capacity.
func spareSet(base config.Machine) []variant {
	return []variant{
		{"Baseline", base},
		{"REESE", base.WithReese()},
		{"R+1ALU", base.WithReese().WithSpares(1, 0)},
		{"R+2ALU", base.WithReese().WithSpares(2, 0)},
		{"R+2ALU+1Mult", base.WithReese().WithSpares(2, 1)},
	}
}

// grid is one figure's cell set: every Table 2 workload on every
// variant. Grids run together may share cells; runGrids simulates each
// distinct (workload, machine) cell once.
type grid struct {
	id, title string
	variants  []variant
}

// The grids of Figures 2-5, in Figure 6's row order.
var (
	figure2Grid = grid{"Figure 2", "initial comparison, Table 1 starting configuration",
		spareSet(config.Starting())}
	figure3Grid = grid{"Figure 3", "RUU size = 32 and LSQ size = 16",
		spareSet(config.Starting().WithRUU(32))}
	// The 16-wide datapath sits on top of the doubled RUU/LSQ, as in the
	// paper's sequence.
	figure4Grid = grid{"Figure 4", "16-wide datapath (RUU 32, LSQ 16)",
		spareSet(config.Starting().WithRUU(32).WithWidth(16))}
	// As in the paper, the 2ALU+1Mult bar is dropped — the extra
	// multiplier makes no difference at this point.
	figure5Grid = grid{"Figure 5", "additional memory ports (4)",
		spareSet(config.Starting().WithRUU(32).WithWidth(16).WithMemPorts(4))[:4]}

	summaryGrids   = []grid{figure2Grid, figure3Grid, figure4Grid, figure5Grid}
	summaryConfigs = []string{"None", "RUU,LSQ 2X", "Ex. Q 2X", "MemPorts"}
)

// figure7Set returns Figure 7's series on one machine: baseline, REESE,
// and REESE with 2 spare ALUs. The R-stream Queue grows to 64 on these
// machines, per the paper's §4.3 note that the buffer must be set to an
// appropriate length for the machine (32 entries throttle a
// 256-entry-RUU REESE by themselves).
func figure7Set(base config.Machine) []variant {
	return []variant{
		{"Baseline", base},
		{"REESE", base.WithReese().WithRSQ(64)},
		{"R+2ALU", base.WithReese().WithRSQ(64).WithSpares(2, 0)},
	}
}

// figure7Grids are Figure 7's four x-positions, each titled with its
// point's label: RUU = 64 and 256, each with and without a doubled
// functional-unit complement.
var (
	doubledFUs   = fu.Config{IntALU: 8, IntMult: 2, MemPort: 4, FPALU: 8, FPMult: 2}
	figure7Grids = []grid{
		{"Figure 7", "RUU=64", figure7Set(config.Starting().WithRUU(64))},
		{"Figure 7", "RUU=64+FUs", figure7Set(config.Starting().WithRUU(64).WithFUs(doubledFUs))},
		{"Figure 7", "RUU=256", figure7Set(config.Starting().WithRUU(256))},
		{"Figure 7", "RUU=256+FUs", figure7Set(config.Starting().WithRUU(256).WithFUs(doubledFUs))},
	}
)

// runGrids simulates every cell of every grid in one pass over the
// worker pool and assembles one FigureResult per grid. A caller wanting
// several figures asks for them together, so no worker idles at a
// barrier between figures. A (workload, machine) cell that several
// grids share is simulated once and reported in each of them.
func runGrids(grids []grid, opt Options) ([]*FigureResult, error) {
	opt = opt.normalize()
	names := workload.Names()
	type cell struct {
		w   string
		cfg config.Machine
	}
	type job struct {
		fig, cell int
		w, label  string
	}
	var (
		jobs  []job
		cells []cell
		index = make(map[cell]int)
	)
	figs := make([]*FigureResult, len(grids))
	for gi, g := range grids {
		fig := &FigureResult{
			ID:        g.id,
			Title:     g.title,
			Workloads: names,
			IPC:       make(map[string]map[string]float64, len(names)),
		}
		for _, v := range g.variants {
			fig.Variants = append(fig.Variants, v.label)
		}
		for _, w := range names {
			fig.IPC[w] = make(map[string]float64, len(g.variants))
			for _, v := range g.variants {
				c := cell{w, v.cfg}
				if _, ok := index[c]; !ok {
					index[c] = len(cells)
					cells = append(cells, c)
				}
				jobs = append(jobs, job{gi, index[c], w, v.label})
			}
		}
		figs[gi] = fig
	}
	// Workers write into per-cell slots; the figures are assembled in job
	// order afterwards so the result is independent of scheduling.
	results := make([]pipeline.Result, len(cells))
	err := forEach(len(cells), opt.Parallel, func(i int) error {
		res, err := runOne(cells[i].cfg, cells[i].w, opt)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", cells[i].w, cells[i].cfg.Name, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		fig := figs[j.fig]
		fig.IPC[j.w][j.label] = results[j.cell].IPC
		fig.Cells = append(fig.Cells, Cell{Workload: j.w, Variant: j.label, Result: results[j.cell]})
	}
	for _, fig := range figs {
		sort.Slice(fig.Cells, func(i, k int) bool {
			if fig.Cells[i].Workload != fig.Cells[k].Workload {
				return fig.Cells[i].Workload < fig.Cells[k].Workload
			}
			return fig.Cells[i].Variant < fig.Cells[k].Variant
		})
	}
	return figs, nil
}

// runGrid is runGrids for a single figure.
func runGrid(g grid, opt Options) (*FigureResult, error) {
	figs, err := runGrids([]grid{g}, opt)
	if err != nil {
		return nil, err
	}
	return figs[0], nil
}

// runOne simulates cfg fault-free on one workload for opt.Insts
// committed instructions.
func runOne(cfg config.Machine, workloadName string, opt Options) (pipeline.Result, error) {
	cpu, err := newCPU(cfg, workloadName, 0, fault.None{}, opt)
	if err != nil {
		return pipeline.Result{}, err
	}
	return cpu.RunContext(opt.Ctx, opt.Insts)
}

// newCPU builds the named workload and a cfg machine running it under
// inj, reporting its commits to opt.Progress. The program runs scale ×
// the workload's DefaultIters outer iterations; scale 0 sizes it
// comfortably past opt.Insts instead. opt must be normalized: the
// caller runs the CPU with RunContext(opt.Ctx, ...).
func newCPU(cfg config.Machine, workloadName string, scale int, inj fault.Injector, opt Options) (*pipeline.CPU, error) {
	// Bail before building anything on a cancelled experiment, so it
	// stops scheduling its remaining runs.
	if err := opt.Ctx.Err(); err != nil {
		return nil, err
	}
	spec, ok := workload.ByName(workloadName)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workloadName)
	}
	iters := spec.DefaultIters * scale
	if iters == 0 {
		// DefaultIters yields roughly 150-400k dynamic instructions.
		iters = spec.DefaultIters * (int(opt.Insts/150_000) + 2)
	}
	prog, err := spec.Build(iters)
	if err != nil {
		return nil, err
	}
	cpu, err := pipeline.New(cfg, prog, inj)
	if err != nil {
		return nil, err
	}
	cpu.SetProgress(opt.Progress)
	return cpu, nil
}

// Figure2 regenerates the paper's Figure 2: REESE versus baseline on the
// Table 1 starting configuration, with the spare-element bar groups.
func Figure2(opt Options) (*FigureResult, error) { return runGrid(figure2Grid, opt) }

// Figure3 regenerates Figure 3: RUU doubled to 32, LSQ to 16.
func Figure3(opt Options) (*FigureResult, error) { return runGrid(figure3Grid, opt) }

// Figure4 regenerates Figure 4: the 16-wide datapath.
func Figure4(opt Options) (*FigureResult, error) { return runGrid(figure4Grid, opt) }

// Figure5 regenerates Figure 5: additional memory ports (4 instead of
// 2), without the 2ALU+1Mult bar.
func Figure5(opt Options) (*FigureResult, error) { return runGrid(figure5Grid, opt) }

// SummaryRow is one point of Figure 6: the average REESE-vs-baseline
// picture for one hardware configuration.
type SummaryRow struct {
	Config       string  `json:"config"`
	BaselineIPC  float64 `json:"baseline_ipc"`
	ReeseIPC     float64 `json:"reese_ipc"`
	Spared2IPC   float64 `json:"spared2_ipc"`    // REESE + 2 spare ALUs
	GapPercent   float64 `json:"gap_pct"`        // baseline -> REESE
	SparedGapPct float64 `json:"spared_gap_pct"` // baseline -> REESE+2ALU
	// BaselineStallPct/ReeseStallPct attribute each configuration's
	// unused commit slots by cause (percent of all commit slots,
	// aggregated across workloads) — the "why" behind the gap columns.
	BaselineStallPct map[string]float64 `json:"baseline_stall_pct,omitempty"`
	ReeseStallPct    map[string]float64 `json:"reese_stall_pct,omitempty"`
}

// Figure6 regenerates Figure 6, the summary over the four hardware
// configurations of Figures 2-5.
func Figure6(opt Options) ([]SummaryRow, error) {
	figs, err := runGrids(summaryGrids, opt)
	if err != nil {
		return nil, err
	}
	return summaryRows(figs), nil
}

// summaryRows derives Figure 6 from the results of Figures 2-5, given in
// summaryGrids order.
func summaryRows(figs []*FigureResult) []SummaryRow {
	rows := make([]SummaryRow, len(figs))
	for i, fig := range figs {
		rows[i] = SummaryRow{
			Config:           summaryConfigs[i],
			BaselineIPC:      fig.Average("Baseline"),
			ReeseIPC:         fig.Average("REESE"),
			Spared2IPC:       fig.Average("R+2ALU"),
			GapPercent:       fig.GapPercent("Baseline", "REESE"),
			SparedGapPct:     fig.GapPercent("Baseline", "R+2ALU"),
			BaselineStallPct: fig.Stalls("Baseline").Commit.CausePcts(),
			ReeseStallPct:    fig.Stalls("REESE").Commit.CausePcts(),
		}
	}
	return rows
}

// Figure6Table renders the summary rows.
func Figure6Table(rows []SummaryRow) string {
	t := stats.NewTable("Figure 6: summary of results (average IPC and REESE gap)",
		"config", "baseline", "REESE", "R+2ALU", "gap%", "gap%+2ALU")
	for _, r := range rows {
		t.AddRowf(r.Config, r.BaselineIPC, r.ReeseIPC, r.Spared2IPC, r.GapPercent, r.SparedGapPct)
	}
	return t.String()
}

// Figure7Point is one x-position of Figure 7.
type Figure7Point struct {
	Label       string  `json:"label"`
	BaselineIPC float64 `json:"baseline_ipc"`
	ReeseIPC    float64 `json:"reese_ipc"`
	Reese2AIPC  float64 `json:"reese2a_ipc"`
	GapPercent  float64 `json:"gap_pct"`
	Gap2APct    float64 `json:"gap2a_pct"`
}

// Figure7 regenerates Figure 7: baseline vs REESE vs REESE+2ALU for
// RUU = 64 and 256, each with and without a doubled functional-unit
// complement (figure7Grids).
func Figure7(opt Options) ([]Figure7Point, error) {
	figs, err := runGrids(figure7Grids, opt)
	if err != nil {
		return nil, err
	}
	return figure7Points(figs), nil
}

// figure7Points derives Figure 7 from the results of figure7Grids.
func figure7Points(figs []*FigureResult) []Figure7Point {
	out := make([]Figure7Point, len(figs))
	for i, fig := range figs {
		out[i] = Figure7Point{
			Label:       fig.Title,
			BaselineIPC: fig.Average("Baseline"),
			ReeseIPC:    fig.Average("REESE"),
			Reese2AIPC:  fig.Average("R+2ALU"),
			GapPercent:  fig.GapPercent("Baseline", "REESE"),
			Gap2APct:    fig.GapPercent("Baseline", "R+2ALU"),
		}
	}
	return out
}

// Figure7Table renders the Figure 7 series.
func Figure7Table(points []Figure7Point) string {
	t := stats.NewTable("Figure 7: REESE vs baseline for even more hardware (average IPC)",
		"config", "baseline", "REESE", "R+2ALU", "gap%", "gap%+2ALU")
	for _, p := range points {
		t.AddRowf(p.Label, p.BaselineIPC, p.ReeseIPC, p.Reese2AIPC, p.GapPercent, p.Gap2APct)
	}
	return t.String()
}

// Table1 renders the starting configuration as the paper's Table 1.
func Table1() string {
	m := config.Starting()
	t := stats.NewTable("Table 1: simulator options (starting configuration)", "parameter", "value")
	t.AddRow("Fetch Queue Size", fmt.Sprint(m.FetchQueueSize))
	t.AddRow("Max IPC for Other Pipeline Stages", fmt.Sprint(m.Width))
	t.AddRow("Issue Width", fmt.Sprint(m.IssueWidth))
	t.AddRow("RUU Size", fmt.Sprint(m.RUUSize))
	t.AddRow("LSQ Size", fmt.Sprint(m.LSQSize))
	t.AddRow("Functional Units", fmt.Sprintf("%d IntALU, %d IntMult/Div, %d MemPorts",
		m.FU.IntALU, m.FU.IntMult, m.FU.MemPort))
	t.AddRow("L1 Data Cache", describeCache(m, "dl1"))
	t.AddRow("L1 Inst. Cache", describeCache(m, "il1"))
	t.AddRow("L2 Cache", describeCache(m, "ul2"))
	t.AddRow("Branch Predictor", fmt.Sprintf("gshare, %d-bit history", m.GshareBits))
	t.AddRow("R-stream Queue", fmt.Sprint(m.Reese.RSQSize))
	return t.String()
}

func describeCache(m config.Machine, name string) string {
	switch name {
	case "dl1":
		c := m.Memory.L1D
		return fmt.Sprintf("%d KB, %d-way, %d-cycle hit", c.SizeBytes/1024, c.Assoc, c.HitLatency)
	case "il1":
		c := m.Memory.L1I
		return fmt.Sprintf("%d KB, %d-way, %d-cycle hit", c.SizeBytes/1024, c.Assoc, c.HitLatency)
	default:
		c := m.Memory.L2
		return fmt.Sprintf("%d KB, %d-way, %d-cycle hit", c.SizeBytes/1024, c.Assoc, c.HitLatency)
	}
}

// Table2 renders the benchmark roster as the paper's Table 2.
func Table2() string {
	t := stats.NewTable("Table 2: benchmark programs and inputs", "benchmark", "input", "signature")
	for _, s := range workload.All() {
		t.AddRow(s.Name, s.Input, s.Signature)
	}
	return t.String()
}

// AllFigures runs every figure and returns the rendered report. Its 186
// cells run in one pass; Figure 6 is derived from the Figure 2-5 results
// rather than simulated again.
func AllFigures(opt Options) (string, error) {
	figs, err := runGrids(slices.Concat(summaryGrids, figure7Grids), opt)
	if err != nil {
		return "", err
	}
	summary, fig7 := figs[:len(summaryGrids)], figs[len(summaryGrids):]
	var b strings.Builder
	b.WriteString(Table1())
	b.WriteByte('\n')
	b.WriteString(Table2())
	b.WriteByte('\n')
	for _, fig := range summary {
		b.WriteString(fig.Table())
		b.WriteByte('\n')
	}
	b.WriteString(Figure6Table(summaryRows(summary)))
	b.WriteByte('\n')
	b.WriteString(Figure7Table(figure7Points(fig7)))
	return b.String(), nil
}

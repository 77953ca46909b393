// Command reese-sweep regenerates the REESE paper's tables and figures.
//
// Usage:
//
//	reese-sweep -figure all            # everything (Tables 1-2, Figures 2-7)
//	reese-sweep -figure 2              # one figure
//	reese-sweep -figure faults         # fault-injection campaign
//	reese-sweep -figure ablations      # the seven ablations + permanent-fault table
//	reese-sweep -figure idle           # the §4.1 idle-capacity premise
//	reese-sweep -figure 2 -json        # the figure series as JSON (2-7, faults)
//	reese-sweep -insts 1000000         # bigger instruction budget per run
//	reese-sweep -parallel 1            # force strictly sequential runs
//	reese-sweep -cpuprofile cpu.pprof  # write a CPU profile of the sweep
//	reese-sweep -memprofile mem.pprof  # write a heap profile at exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"reese/internal/config"
	"reese/internal/harness"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		figure     = flag.String("figure", "all", "which figure to regenerate: 2,3,4,5,6,7, table1, table2, faults, ablations, idle, claims, all")
		insts      = flag.Uint64("insts", 150_000, "committed-instruction budget per simulation")
		format     = flag.String("format", "table", "output format for figures 2-5: table or csv")
		asJSON     = flag.Bool("json", false, "emit the figure series as JSON (figures 2-7 and faults)")
		why        = flag.Bool("why", false, "append the commit-slot stall attribution table (figures 2-5)")
		parallel   = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = sequential)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	opt := harness.Options{Insts: *insts, Parallel: *parallel}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reese-sweep:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "reese-sweep:", err)
			return 1
		}
		// run() (not main) owns the deferred stop, so os.Exit cannot
		// truncate the profile.
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reese-sweep:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "reese-sweep:", err)
			}
		}()
	}

	emit := func(s string, err error) int {
		if err != nil {
			fmt.Fprintln(os.Stderr, "reese-sweep:", err)
			return 1
		}
		fmt.Println(s)
		return 0
	}
	// emitJSON renders v (a figure series) to stdout; mirrors
	// reese-sim -json so downstream tooling gets the same shapes the
	// reese-serve API returns.
	emitJSON := func(v any, err error) int {
		if err != nil {
			fmt.Fprintln(os.Stderr, "reese-sweep:", err)
			return 1
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			fmt.Fprintln(os.Stderr, "reese-sweep:", err)
			return 1
		}
		return 0
	}

	switch *figure {
	case "table1":
		return emit(harness.Table1(), nil)
	case "table2":
		return emit(harness.Table2(), nil)
	case "2", "3", "4", "5":
		f := map[string]func(harness.Options) (*harness.FigureResult, error){
			"2": harness.Figure2, "3": harness.Figure3, "4": harness.Figure4, "5": harness.Figure5,
		}[*figure]
		fig, err := f(opt)
		if err != nil {
			return emit("", err)
		}
		if *asJSON {
			return emitJSON(fig, nil)
		}
		if *format == "csv" {
			return emit(harness.FigureCSV(fig), nil)
		}
		out := fig.Table() + fmt.Sprintf("REESE gap: %.1f%%  with 2 spare ALUs: %.1f%%\n",
			fig.GapPercent("Baseline", "REESE"), sparedGap(fig))
		if *why {
			out += "\n" + fig.StallTable()
		}
		return emit(out, nil)
	case "6":
		rows, err := harness.Figure6(opt)
		if err != nil {
			return emit("", err)
		}
		if *asJSON {
			return emitJSON(rows, nil)
		}
		return emit(harness.Figure6Table(rows), nil)
	case "7":
		points, err := harness.Figure7(opt)
		if err != nil {
			return emit("", err)
		}
		if *asJSON {
			return emitJSON(points, nil)
		}
		return emit(harness.Figure7Table(points), nil)
	case "faults":
		base := harness.CampaignSpec{Machine: config.Starting(), Injections: 200, Seed: 1}
		tbl, reports, err := harness.CampaignAll(base, func(s harness.CampaignSpec) (*harness.CampaignReport, error) {
			return harness.Campaign(s, opt)
		})
		if *asJSON {
			return emitJSON(reports, err)
		}
		return emit(tbl, err)
	case "ablations":
		tbl, err := harness.Ablations(opt)
		return emit(tbl, err)
	case "idle":
		tbl, err := harness.IdleCapacity(opt)
		return emit(tbl, err)
	case "claims":
		claims, err := harness.CheckClaims(opt)
		if err != nil {
			return emit("", err)
		}
		out := harness.ClaimsReport(claims)
		for _, c := range claims {
			if !c.Pass {
				fmt.Println(out)
				return 3
			}
		}
		return emit(out, nil)
	case "all":
		report, err := harness.AllFigures(opt)
		return emit(report, err)
	default:
		fmt.Fprintf(os.Stderr, "reese-sweep: unknown figure %q\n", *figure)
		return 2
	}
}

func sparedGap(fig *harness.FigureResult) float64 {
	for _, v := range fig.Variants {
		if v == "R+2ALU" {
			return fig.GapPercent("Baseline", v)
		}
	}
	return 0
}

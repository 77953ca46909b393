package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Verdicts of -compare.
const (
	verdictWin        = "win"        // the claim holds
	verdictNotMet     = "not met"    // the claim does not hold
	verdictUnchanged  = "unchanged"  // within the bound
	verdictBetter     = "better"     // better by more than the bound
	verdictWorse      = "worse"      // worse by more than the bound: a regression
	verdictUnresolved = "unresolved" // spread wider than the bound
)

// minPairs is how many seed-matched runs a claim needs on each side.
const minPairs = 10

// comparison is the verdict for one (workload, metric) pair.
type comparison struct {
	Workload, Metric string
	Parent, Change   []float64
	Verdict          string
	Detail           string
}

// compareResult is everything -compare decides.
type compareResult struct {
	Rows     []comparison
	Problems []string // digest changes and fail_frac rises
}

// failed reports whether the comparison should exit non-zero.
func (c compareResult) failed() bool {
	if len(c.Problems) > 0 {
		return true
	}
	for _, r := range c.Rows {
		if r.Verdict == verdictWorse || r.Verdict == verdictNotMet {
			return true
		}
	}
	return false
}

func compareMain(spec *Spec, args []string, claim string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: reese-bench -compare [-claim workload:metric] parent.jsonl change.jsonl")
		return 2
	}
	res, err := compareFiles(spec, args[0], args[1], claim)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-bench -compare:", err)
		return 2
	}
	printComparison(res)
	if res.failed() {
		return 1
	}
	return 0
}

func compareFiles(spec *Spec, parentPath, changePath, claim string) (compareResult, error) {
	parent, err := readRecords(parentPath)
	if err != nil {
		return compareResult{}, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return compareResult{}, err
	}
	return compareSets(spec, parent, change, claim)
}

// readRecords loads the untraced records of a result file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", path)
	}
	return out, nil
}

// compareSets judges a change's results against its parent's by the
// rules of the choosing-metrics method: a claimed gain needs at least
// ten seed-matched pairs, nine in ten won, and a median gap wider than
// the parent's interquartile range; every other end-to-end metric must
// not be worse than the parent's median by more than its bound, and is
// unresolved when the runs spread wider than the bound. It refuses sets
// measured in different environments or at different run lengths.
func compareSets(spec *Spec, parent, change []record, claim string) (compareResult, error) {
	var res compareResult
	ref := parent[0]
	for _, r := range append(append([]record(nil), parent...), change...) {
		if why := ref.Stamp.comparable(r.Stamp); why != "" {
			return res, fmt.Errorf("results come from different environments (%s); refusing to compare", why)
		}
		if r.Seconds != ref.Seconds || r.Scale != ref.Scale {
			return res, fmt.Errorf("results use different run lengths (%gs x%g vs %gs x%g); refusing to compare",
				ref.Seconds, ref.Scale, r.Seconds, r.Scale)
		}
	}
	claimWL, claimMetric, _ := strings.Cut(claim, ":")
	if claim != "" {
		if _, ok := spec.Metric(claimMetric); !ok || !spec.hasWorkload(claimWL) {
			return res, fmt.Errorf("claim %q names no workload:metric of the benchmark", claim)
		}
	}

	workloads := map[string]bool{}
	for _, r := range change {
		workloads[r.Workload] = true
	}
	for _, w := range spec.Workloads {
		if !workloads[w.Name] {
			continue
		}
		p, c := byWorkload(parent, w.Name), byWorkload(change, w.Name)
		if len(p) == 0 {
			return res, fmt.Errorf("parent has no results for workload %s", w.Name)
		}
		res.Problems = append(res.Problems, digestChanges(w.Name, p, c)...)
		if pf, cf := failFrac(p), failFrac(c); cf > pf {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: failed share rose from %.4f to %.4f", w.Name, pf, cf))
		}
		for _, m := range spec.EndToEnd {
			row := comparison{Workload: w.Name, Metric: m.Name, Parent: values(p, m.Name), Change: values(c, m.Name)}
			if w.Name == claimWL && m.Name == claimMetric {
				row.Verdict, row.Detail = judgeClaim(m, pairs(p, c, m.Name))
			} else {
				row.Verdict, row.Detail = judgeBound(m, row.Parent, row.Change)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	if claim != "" && !workloads[claimWL] {
		return res, fmt.Errorf("change has no results for claimed workload %s", claimWL)
	}
	return res, nil
}

// judgeBound applies the no-regression rule to one metric.
func judgeBound(m Metric, parent, change []float64) (string, string) {
	pm, cm := median(parent), median(change)
	worse := worsening(m, pm, cm)
	detail := fmt.Sprintf("%+.1f%% vs bound %.0f%%", -100*worse, 100*m.Bound)
	if s := math.Max(spread(parent), spread(change)); s > m.Bound {
		if allBetter(m, parent, change) {
			return verdictBetter, detail + fmt.Sprintf("; spread %.1f%%, every run better", 100*s)
		}
		return verdictUnresolved, detail + fmt.Sprintf("; spread %.1f%% exceeds the bound", 100*s)
	}
	switch {
	case worse > m.Bound:
		return verdictWorse, detail
	case -worse > m.Bound:
		return verdictBetter, detail
	}
	return verdictUnchanged, detail
}

// judgeClaim applies the gain rule to the claimed metric.
func judgeClaim(m Metric, ps [][2]float64) (string, string) {
	if len(ps) < minPairs {
		return verdictNotMet, fmt.Sprintf("%d seed-matched pairs, need %d", len(ps), minPairs)
	}
	var parent, change []float64
	wins := 0
	for _, p := range ps {
		parent, change = append(parent, p[0]), append(change, p[1])
		if better(m, p[1], p[0]) {
			wins++
		}
	}
	q1, q3 := quartiles(parent)
	gap := math.Abs(median(change) - median(parent))
	detail := fmt.Sprintf("won %d of %d pairs; median gap %.4g vs parent IQR %.4g", wins, len(ps), gap, q3-q1)
	if 10*wins >= 9*len(ps) && gap > q3-q1 && better(m, median(change), median(parent)) {
		return verdictWin, detail
	}
	return verdictNotMet, detail
}

// worsening is how much worse b is than a, as a share of a (negative
// when better).
func worsening(m Metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

func better(m Metric, x, than float64) bool {
	if m.Better == "higher" {
		return x > than
	}
	return x < than
}

// allBetter reports whether every change run beats every parent run.
func allBetter(m Metric, parent, change []float64) bool {
	if len(parent) == 0 || len(change) == 0 {
		return false
	}
	worstChange, bestParent := change[0], parent[0]
	for _, c := range change {
		if better(m, worstChange, c) {
			worstChange = c
		}
	}
	for _, p := range parent {
		if better(m, p, bestParent) {
			bestParent = p
		}
	}
	return better(m, worstChange, bestParent)
}

func byWorkload(rs []record, w string) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == w {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// pairs matches parent and change runs by seed, each run used once.
func pairs(parent, change []record, metric string) [][2]float64 {
	bySeed := map[uint64][]float64{}
	for _, r := range parent {
		bySeed[r.Seed] = append(bySeed[r.Seed], r.Metrics[metric])
	}
	var out [][2]float64
	for _, r := range change {
		if ps := bySeed[r.Seed]; len(ps) > 0 {
			out = append(out, [2]float64{ps[0], r.Metrics[metric]})
			bySeed[r.Seed] = ps[1:]
		}
	}
	return out
}

// digestChanges compares the output digests of equal seeds over the
// operations both runs completed.
func digestChanges(w string, parent, change []record) []string {
	bySeed := map[uint64]map[string]string{}
	for _, r := range parent {
		if bySeed[r.Seed] == nil {
			bySeed[r.Seed] = map[string]string{}
		}
		for k, d := range r.Digests {
			bySeed[r.Seed][k] = d
		}
	}
	var out []string
	for _, r := range change {
		keys := make([]string, 0, len(r.Digests))
		for k := range r.Digests {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if p, ok := bySeed[r.Seed][k]; ok && p != r.Digests[k] {
				out = append(out, fmt.Sprintf("%s seed %d: output digest of operation %s changed (%s -> %s)", w, r.Seed, k, p, r.Digests[k]))
				break
			}
		}
	}
	return out
}

func failFrac(rs []record) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

func printComparison(res compareResult) {
	fmt.Printf("%-9s %-12s %23s %23s  %-10s %s\n", "workload", "metric", "parent median [q1,q3]", "change median [q1,q3]", "verdict", "detail")
	for _, r := range res.Rows {
		fmt.Printf("%-9s %-12s %23s %23s  %-10s %s\n", r.Workload, r.Metric, summary(r.Parent), summary(r.Change), r.Verdict, r.Detail)
	}
	for _, p := range res.Problems {
		fmt.Println("PROBLEM:", p)
	}
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g,%.4g]", median(xs), q1, q3)
}

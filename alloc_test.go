package reese

import (
	"testing"

	"reese/internal/config"
	"reese/internal/harness"
)

// campaignAllocBudget is the allocation count of one warmed 200-trial
// gcc seed-7 campaign as measured when the budget was set, by machine.
// Trials recycle workers through a sync.Pool whose hit rate depends on
// GC timing, so the count wobbles by a few; a campaign may allocate up
// to 5% more before the test fails.
var campaignAllocBudget = []struct {
	name  string
	cfg   config.Machine
	count float64
}{
	{"baseline", config.Starting(), 3807},
	{"reese", config.Starting().WithReese(), 4105},
}

// TestCampaignAllocBudget holds the campaign engine's per-trial
// allocations (fork, suffix simulation, splice) to the budget above,
// on the spec BenchmarkCampaignThroughput runs. AllocsPerRun counts the
// whole process, so this test must not run in parallel with others.
func TestCampaignAllocBudget(t *testing.T) {
	for _, bm := range campaignAllocBudget {
		spec := harness.CampaignSpec{
			Workload:   "gcc",
			Machine:    bm.cfg,
			Injections: 200,
			Seed:       7,
		}
		// AllocsPerRun's warm-up call fills the golden-run memo, as the
		// benchmark's does.
		got := testing.AllocsPerRun(3, func() {
			if _, err := harness.Campaign(spec, harness.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if max := bm.count * 1.05; got > max {
			t.Errorf("%s: campaign allocates %.0f, budget %.0f (+5%% of %.0f)", bm.name, got, max, bm.count)
		}
	}
}

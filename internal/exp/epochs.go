package exp

import (
	"slices"

	"hetsim/internal/telemetry"
)

// recordEpochs saves a completed run's series labelled by config and
// benchmark. The runner memoizes each distinct (config, benchmark)
// execution, so every run records at most once no matter how many
// figures share it.
func (r *Runner) recordEpochs(config, bench string, s *telemetry.Series) {
	if s == nil || s.NumRows() == 0 {
		return
	}
	r.mu.Lock()
	r.epochs = append(r.epochs, telemetry.Run{Labels: []string{config, bench}, Series: s})
	r.mu.Unlock()
}

// Epochs returns every recorded epoch series labelled (config, bench)
// and sorted by those labels. Runs complete in a nondeterministic order
// under parallelism; the sort makes epoch files byte-identical at any
// worker count. Write them with telemetry.WriteFiles.
func (r *Runner) Epochs() []telemetry.Run {
	r.mu.Lock()
	runs := append([]telemetry.Run(nil), r.epochs...)
	r.mu.Unlock()
	slices.SortFunc(runs, func(a, b telemetry.Run) int { return slices.Compare(a.Labels, b.Labels) })
	return runs
}

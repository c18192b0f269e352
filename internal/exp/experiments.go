package exp

import (
	"fmt"
	"slices"
	"strings"

	"hetsim/internal/core"
)

// Experiment is one table or figure of the evaluation, as
// cmd/experiments prints it and BenchmarkExperiments measures it.
type Experiment struct {
	Name string // the cmd/experiments -only key
	// OptIn experiments go beyond the paper's evaluation and run only
	// when named.
	OptIn bool
	Run   func(*Runner) (Report, error)
}

// Report is one experiment's output.
type Report struct {
	// Text is what cmd/experiments prints for the experiment: its
	// tables and charts.
	Text string
	// Headlines compare a measured value with the paper's number.
	Headlines []Headline
	// Notes are summary lines for results the paper states only as a
	// direction.
	Notes []string
}

// Headline is one paper-vs-measured value, both as fractions.
type Headline struct {
	Label    string
	Paper    float64
	Measured float64
}

// String renders the headline as one summary line.
func (h Headline) String() string {
	return fmt.Sprintf("%-34s paper %+6.1f%%  measured %+6.1f%%", h.Label, h.Paper*100, h.Measured*100)
}

// Summary lists the report's headlines, then its notes, as lines.
func (rep Report) Summary() []string {
	var lines []string
	for _, h := range rep.Headlines {
		lines = append(lines, h.String())
	}
	return append(lines, rep.Notes...)
}

// text prints blocks the way fmt.Println does, one call each: a
// table's own trailing newline leaves a blank line after it.
func text(blocks ...string) string {
	return strings.Join(blocks, "\n") + "\n"
}

// reported adapts a typed experiment function and its report to an
// Experiment's Run.
func reported[T any](run func(*Runner) (T, error), report func(*Runner, T) Report) func(*Runner) (Report, error) {
	return func(r *Runner) (Report, error) {
		res, err := run(r)
		if err != nil {
			return Report{}, err
		}
		return report(r, res), nil
	}
}

// fixed reports a table that needs no simulation.
func fixed(table func() string) func(*Runner) (Report, error) {
	return func(*Runner) (Report, error) { return Report{Text: text(table())}, nil }
}

// topologyStudy names the experiment a topology list configures.
const topologyStudy = "topologies"

// Experiments is the evaluation in print order: the paper's tables and
// figures, then the opt-in studies. topologies are the configs of the
// topology study (nil = its defaults).
func Experiments(topologies []core.SystemConfig) []Experiment {
	return []Experiment{
		{Name: "table1", Run: fixed(Table1)},
		{Name: "table2", Run: fixed(Table2)},
		{Name: "workloads", Run: fixed(WorkloadTable)},
		{Name: "fig1a", Run: reported(Fig1a, func(_ *Runner, s Study) Report {
			return Report{Text: text(s.Table, s.Chart("Figure 1a, all-RLDRAM3 bars ('|' marks the DDR3 baseline):", 1)),
				Headlines: []Headline{
					{"Fig1a RLDRAM3 homogeneous gain", 0.31, s.Means[1] - 1},
					{"Fig1a LPDDR2 homogeneous loss", -0.13, s.Means[2] - 1},
				}}
		})},
		{Name: "fig1b", Run: reported(Fig1b, func(_ *Runner, res Fig1bResult) Report {
			rep := Report{Text: text(res.Table)}
			base := res.Queue["DDR3-baseline"] + res.Core["DDR3-baseline"] + res.Xfer["DDR3-baseline"]
			rld := res.Queue["RLDRAM3-homog"] + res.Core["RLDRAM3-homog"] + res.Xfer["RLDRAM3-homog"]
			if base > 0 {
				rep.Headlines = []Headline{{"Fig1b RLDRAM3 latency reduction", -0.43, rld/base - 1}}
			}
			return rep
		})},
		{Name: "fig2", Run: fixed(func() string { return Fig2().Table })},
		{Name: "fig3", Run: reported(func(r *Runner) (Fig3Result, error) { return Fig3(r, 8) },
			func(_ *Runner, res Fig3Result) Report { return Report{Text: text(res.Table)} })},
		{Name: "fig4", Run: reported(Fig4, func(r *Runner, res Fig4Result) Report {
			return Report{Text: text(res.Table), Notes: []string{fmt.Sprintf(
				"%-34s paper 21/27 >50%%; mean 67%%  measured %d/%d; mean %.0f%%",
				"Fig4 word-0 dominance", res.Word0Count, len(r.Opts.Benchmarks), res.MeanWord0*100)}}
		})},
		{Name: "fig6", Run: reported(Fig6, func(_ *Runner, s Study) Report {
			return Report{Text: text(s.Table, s.Chart("Figure 6, RL bars ('|' marks the DDR3 baseline):", 1)),
				Headlines: []Headline{
					{"Fig6 RD throughput gain", 0.21, s.Means[0] - 1},
					{"Fig6 RL throughput gain", 0.129, s.Means[1] - 1},
					{"Fig6 DL throughput loss", -0.09, s.Means[2] - 1},
				}}
		})},
		{Name: "fig7", Run: reported(Fig7, func(r *Runner, s Study) Report {
			return Report{Text: text(s.Table), Headlines: []Headline{
				{"Fig7 RD crit latency reduction", -0.30, -critReduction(s, r.Opts.Benchmarks, 1)},
				{"Fig7 RL crit latency reduction", -0.22, -critReduction(s, r.Opts.Benchmarks, 2)},
			}}
		})},
		{Name: "fig8", Run: reported(Fig8, func(_ *Runner, s Study) Report {
			return Report{Text: text(s.Table), Headlines: []Headline{
				{"Fig8 served by RLDRAM3 (mean)", 0.67, s.Means[0]}}}
		})},
		{Name: "fig9", Run: reported(Fig9, func(_ *Runner, s Study) Report {
			return Report{Text: text(s.Table), Headlines: []Headline{
				{"Fig9 RL-AD gain", 0.157, s.Means[1] - 1},
				{"Fig9 RL-OR gain", 0.28, s.Means[2] - 1},
			}}
		})},
		{Name: "fig10", Run: reported(Fig10, func(_ *Runner, s Study) Report {
			return Report{Text: text(s.Table), Headlines: []Headline{
				{"Fig10 RL system energy", -0.06, s.Means[1] - 1},
				{"Fig10 DL system energy", -0.13, s.Means[2] - 1},
				{"Fig10 RL memory energy", -0.15, s.Means[3] - 1},
			}}
		})},
		{Name: "fig11", Run: reported(Fig11, func(_ *Runner, res Fig11Result) Report {
			return Report{Text: text(res.Table), Notes: []string{fmt.Sprintf(
				"%-34s paper: savings grow with util  measured: high-util minus low-util = %+.1f%%",
				"Fig11 trend", res.HighMinusLow*100)}}
		})},
		{Name: "random", Run: reported(RandomMapping, func(_ *Runner, s Study) Report {
			return Report{Text: text(s.Table), Headlines: []Headline{
				{"§6.1.1 random mapping gain", 0.021, s.Means[0] - 1}}}
		})},
		{Name: "noprefetch", Run: reported(NoPrefetcher, func(_ *Runner, s Study) Report {
			return Report{Text: text(s.Table), Headlines: []Headline{
				{"§6.1.1 RL gain w/ prefetcher", 0.129, s.Means[0] - 1},
				{"§6.1.1 RL gain w/o prefetcher", 0.173, s.Means[1] - 1},
			}}
		})},
		{Name: "reusegap", Run: reported(ReuseGap, func(_ *Runner, s Study) Report {
			return Report{Text: text(s.Table)}
		})},
		{Name: "pageplacement", Run: reported(PagePlacement, func(_ *Runner, res PagePlacementResult) Report {
			return Report{Text: text(res.Table), Headlines: []Headline{
				{"§7.1 page placement gain", 0.08, res.Mean - 1}}}
		})},
		{Name: "cmdbus", Run: reported(CmdBusAblation, func(_ *Runner, s Study) Report {
			return Report{Text: text(s.Table), Notes: []string{fmt.Sprintf(
				"%-34s paper: shared bus bottlenecks RL-OR  measured: private-shared = %+.1f%%",
				"§4.2.4 cmd bus ablation", (s.Means[1]-s.Means[0])*100)}}
		})},
		{Name: "subrank", Run: reported(SubRankAblation, func(_ *Runner, s Study) Report {
			return Report{Text: text(s.Table), Notes: []string{fmt.Sprintf(
				"%-34s paper: narrow ranks cut energy & queueing  measured perf n/w = %.3f/%.3f",
				"§4.2.4 sub-rank ablation", s.Means[0], s.Means[1])}}
		})},
		{Name: "malladi", Run: reported(Malladi, func(_ *Runner, s Study) Report {
			return Report{Text: text(s.Table), Headlines: []Headline{
				{"§7.2 Malladi system energy", -0.261, s.Means[0] - 1}}}
		})},
		{Name: "policies", Run: reported(SchedulerPolicies, func(_ *Runner, s Study) Report {
			return Report{Text: text(s.Table), Notes: []string{fmt.Sprintf(
				"%-34s paper: FR-FCFS + open page chosen  measured: fcfs %.3f, close-page %.3f",
				"§5 controller policies", s.Means[0], s.Means[1])}}
		})},
		{Name: "mapping", Run: reported(AddressMapping, func(_ *Runner, s Study) Report {
			return Report{Text: text(s.Table), Notes: []string{fmt.Sprintf(
				"%-34s paper: open-row is the best baseline  measured: xor %.3f, bank-first %.3f",
				"§5 address interleaving", s.Means[1], s.Means[2])}}
		})},
		{Name: "rob", Run: reported(func(r *Runner) (ROBResult, error) { return ROBSensitivity(r, nil) },
			func(_ *Runner, res ROBResult) Report { return Report{Text: text(res.Table)} })},
		{Name: "hmc", Run: reported(FutureHMC, func(_ *Runner, s Study) Report {
			return Report{Text: text(s.Table), Notes: []string{fmt.Sprintf(
				"%-34s paper: future-work sketch  measured RL %.3f vs HMC %.3f",
				"§10 heterogeneous HMC", s.Means[0], s.Means[1])}}
		})},
		{Name: topologyStudy, OptIn: true, Run: reported(
			func(r *Runner) (Study, error) { return Topologies(r, topologies) },
			func(_ *Runner, s Study) Report {
				rep := Report{Text: text(s.Table)}
				for i, name := range s.Columns {
					rep.Notes = append(rep.Notes, fmt.Sprintf("%-34s beyond the paper  measured %.3f",
						"topology "+name, s.Means[i]))
				}
				return rep
			})},
		{Name: "faults", OptIn: true, Run: reported(FaultSensitivity, func(_ *Runner, res FaultResult) Report {
			rep := Report{Text: text(res.Table)}
			if n := len(res.Gains); n > 0 {
				rep.Notes = []string{fmt.Sprintf("%-34s dead-crit retains %.0f%% of clean RL throughput",
					"fault sensitivity", res.Gains[n-1]*100)}
			}
			return rep
		})},
	}
}

// Select returns the experiments named in only, in print order, or
// every experiment that is not opt-in when only is empty. A topology
// list is for the topology study: with no names it selects that study
// alone, and names that leave it out are an error. Names are matched
// case-insensitively; an unknown name is an error listing the known
// ones.
func Select(only []string, topologies []core.SystemConfig) ([]Experiment, error) {
	all := Experiments(topologies)
	known := make([]string, len(all))
	for i, e := range all {
		known[i] = e.Name
	}
	want := map[string]bool{}
	for _, name := range only {
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "" {
			continue
		}
		if !slices.Contains(known, name) {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(known, ","))
		}
		want[name] = true
	}
	if len(topologies) > 0 {
		if len(want) == 0 {
			want[topologyStudy] = true
		} else if !want[topologyStudy] {
			return nil, fmt.Errorf("a topology list needs %q among the selected experiments", topologyStudy)
		}
	}
	var sel []Experiment
	for _, e := range all {
		if want[e.Name] || (len(want) == 0 && !e.OptIn) {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

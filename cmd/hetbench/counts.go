package main

import (
	"strings"

	"hetsim/internal/core"
	"hetsim/internal/telemetry"
)

// counts sums exact work counters over a set of runs. They repeat bit
// for bit at a given seed, so any change in them is a change in the
// simulated work, not noise. Registry counters cover the whole run
// (warmup and measured window); the cpu counters and Results cover the
// measured window only, because the cores reset their stats when the
// window opens.
type counts struct {
	// Whole run.
	fills, storeFills, prefetchFills, merged, writebacks float64
	events, rowHits, rowMisses, drains, dramCmds         float64
	// Measured window.
	reads, cycles, instr, depStalls, retryStalls float64
	critLat, critFast, queueLat, busUtil         float64 // read-weighted sums
	runs                                         int
}

// add reads one finished run's registry and results.
func (c *counts) add(sys *core.System, res core.Results) {
	snap := sys.Reg.Snapshot(sys.Eng.Now())
	v := telemetry.NewView(sys.Reg, snap, snap)
	for _, name := range sys.Reg.Names() {
		val := v.Level(name)
		last := name[strings.LastIndexByte(name, '.')+1:]
		switch {
		case name == "sim.events":
			c.events += val
		case name == "hier.demand_fills":
			c.fills += val
		case name == "hier.store_fills":
			c.storeFills += val
		case name == "hier.prefetch_fills":
			c.prefetchFills += val
		case name == "hier.merged_misses":
			c.merged += val
		case name == "hier.writebacks":
			c.writebacks += val
		case strings.HasPrefix(name, "mem.g"):
			switch last {
			case "row_hits":
				c.rowHits += val
			case "row_misses":
				c.rowMisses += val
			case "drains":
				c.drains += val
			case "acts", "reads", "writes", "refreshes":
				c.dramCmds += val
			}
		case strings.HasPrefix(name, "cpu"):
			switch last {
			case "retired":
				c.instr += val
			case "dep_stalls":
				c.depStalls += val
			case "retry_stalls":
				c.retryStalls += val
			}
		}
	}
	r := float64(res.DemandReads)
	c.reads += r
	c.cycles += float64(res.Cycles)
	c.critLat += res.CritLatency * r
	c.critFast += res.CritFromFastFrac * r
	c.queueLat += res.QueueLat * r
	c.busUtil += res.BusUtil * r
	c.runs++
}

// metrics names each count-derived per-layer metric.
func (c *counts) metrics() map[string]metric {
	return map[string]metric{
		"sim.events_per_read":          {ratio(c.events, c.fills), "events/read"},
		"sim.cycles_per_read":          {ratio(c.cycles, c.reads), "cycles/read"},
		"memctrl.row_hit_frac":         {ratio(c.rowHits, c.rowHits+c.rowMisses), "frac"},
		"memctrl.queue_lat_cyc":        {ratio(c.queueLat, c.reads), "cycles"},
		"memctrl.drains_per_read":      {ratio(c.drains, c.fills), "drains/read"},
		"dram.cmds_per_read":           {ratio(c.dramCmds, c.fills), "cmds/read"},
		"dram.bus_util":                {ratio(c.busUtil, c.reads), "frac"},
		"cpu.instr_per_read":           {ratio(c.instr, c.reads), "instr/read"},
		"cpu.dep_stalls_per_read":      {ratio(c.depStalls, c.reads), "stalls/read"},
		"cpu.retry_stalls_per_read":    {ratio(c.retryStalls, c.reads), "stalls/read"},
		"hier.mshr_merge_frac":         {ratio(c.merged, c.merged+c.fills+c.storeFills), "frac"},
		"hier.prefetch_fills_per_read": {ratio(c.prefetchFills, c.fills), "fills/read"},
		"hier.writebacks_per_read":     {ratio(c.writebacks, c.fills), "wbs/read"},
		"hier.crit_latency_cyc":        {ratio(c.critLat, c.reads), "cycles"},
		"hier.crit_fast_frac":          {ratio(c.critFast, c.reads), "frac"},
	}
}

package memctrl

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"hetsim/internal/dram"
	"hetsim/internal/sim"
)

// Differential test for timing-directed tick skipping: the same request
// stream is replayed into two controllers — one ticking every bus cycle
// (Cfg.PerCycle, the legacy reference) and one skipping to the next
// actionable cycle — and the full DRAM command traces (opcode, cycle,
// rank, bank, row) must match exactly. Any scheduling decision the skip
// path makes earlier, later, or differently from the per-cycle scan
// shows up as a first-divergence here.

// diffCmd is one observed DRAM command.
type diffCmd struct {
	op     byte
	at     sim.Cycle
	rk, bk int
	row    int64
}

func (d diffCmd) String() string {
	return fmt.Sprintf("%c@%d r%d b%d row%d", d.op, d.at, d.rk, d.bk, d.row)
}

// diffStim is one scheduled enqueue.
type diffStim struct {
	at       sim.Cycle
	addr     uint64
	write    bool
	prefetch bool
}

// stimProfile shapes a generated request stream.
type stimProfile struct {
	n         int     // total requests
	burstMean float64 // mean requests per burst
	gapShort  int     // max intra-burst spacing (cycles)
	gapLong   int     // max inter-burst gap; > SleepAfter/TREFI exercises park+sleep+refresh
	pLong     float64 // probability a burst is followed by a long gap
	pWrite    float64
	pPrefetch float64
	rowSpan   int // rows addressed (small = row-hit-heavy)
	footprint uint64
}

func genStim(rng *sim.RNG, p stimProfile) []diffStim {
	stim := make([]diffStim, 0, p.n)
	at := sim.Cycle(1 + rng.Intn(200))
	burstGeo := sim.NewGeo(p.burstMean)
	for len(stim) < p.n {
		burst := 1 + rng.Geometric(burstGeo)
		for b := 0; b < burst && len(stim) < p.n; b++ {
			stim = append(stim, diffStim{
				at:       at,
				addr:     uint64(rng.Intn(p.rowSpan)) * 131 % p.footprint,
				write:    rng.Bool(p.pWrite),
				prefetch: rng.Bool(p.pPrefetch),
			})
			at += sim.Cycle(rng.Intn(p.gapShort + 1))
		}
		if rng.Bool(p.pLong) {
			at += sim.Cycle(1 + rng.Intn(p.gapLong))
		} else {
			at += sim.Cycle(1 + rng.Intn(p.gapShort*4+1))
		}
	}
	return stim
}

// runDiffSide replays stim into a fresh controller and returns the
// command trace, the number of rejected enqueues, and final stats.
func runDiffSide(t *testing.T, dcfg dram.Config, ranks int, ccfg Config, stim []diffStim, perCycle bool) ([]diffCmd, int, Stat) {
	t.Helper()
	eng := &sim.Engine{}
	ch := dram.NewChannel(dcfg, ranks, nil)
	ccfg.PerCycle = perCycle
	c := New(eng, ch, ccfg)
	c.Pool = &Pool{}
	var trace []diffCmd
	c.CmdTrace = func(op byte, at sim.Cycle, rk, bk int, row int64) {
		trace = append(trace, diffCmd{op, at, rk, bk, row})
	}
	rejects := 0
	onComplete := func(*Request) {}
	for _, s := range stim {
		s := s
		eng.ScheduleEventAt(s.at, call(func() {
			r := c.Pool.Get()
			r.Addr = s.addr
			r.Prefetch = s.prefetch
			var ok bool
			if s.write {
				ok = c.EnqueueWrite(r)
			} else {
				r.OnComplete = onComplete
				ok = c.EnqueueRead(r)
			}
			if !ok {
				rejects++
				c.Pool.Put(r)
			}
		}), nil)
	}
	end := stim[len(stim)-1].at + 4_000_000
	eng.RunUntil(end)
	if c.Pending() != 0 {
		t.Fatalf("perCycle=%v: %d requests still pending at cycle %d", perCycle, c.Pending(), end)
	}
	return trace, rejects, c.Stats
}

// diffCase is one randomized configuration of the differential matrix.
type diffCase struct {
	name  string
	dcfg  func() dram.Config
	ranks int
	tweak func(*Config)
	prof  stimProfile
	seed  uint64
}

func diffCases() []diffCase {
	return []diffCase{
		{
			name: "ddr3-1rank-mixed", dcfg: dram.DDR3Config, ranks: 1, seed: 1,
			prof: stimProfile{n: 400, burstMean: 6, gapShort: 9, gapLong: 40_000, pLong: 0.15,
				pWrite: 0.3, pPrefetch: 0.2, rowSpan: 4000, footprint: 1 << 22},
		},
		{
			name: "ddr3-4rank-refresh-sleep", dcfg: dram.DDR3Config, ranks: 4, seed: 2,
			prof: stimProfile{n: 300, burstMean: 4, gapShort: 13, gapLong: 120_000, pLong: 0.3,
				pWrite: 0.25, pPrefetch: 0.15, rowSpan: 8000, footprint: 1 << 24},
		},
		{
			name: "ddr3-fcfs-2rank", dcfg: dram.DDR3Config, ranks: 2, seed: 3,
			tweak: func(c *Config) { c.FCFS = true },
			prof: stimProfile{n: 300, burstMean: 5, gapShort: 7, gapLong: 60_000, pLong: 0.2,
				pWrite: 0.3, pPrefetch: 0.1, rowSpan: 2000, footprint: 1 << 22},
		},
		{
			name: "lpddr2-2rank-sleep", dcfg: dram.LPDDR2Config, ranks: 2, seed: 4,
			prof: stimProfile{n: 300, burstMean: 5, gapShort: 11, gapLong: 30_000, pLong: 0.35,
				pWrite: 0.2, pPrefetch: 0.2, rowSpan: 3000, footprint: 1 << 22},
		},
		{
			name: "lpddr2-deepsleep-overdue-refresh", dcfg: dram.LPDDR2Config, ranks: 4, seed: 5,
			tweak: func(c *Config) { c.DeepSleep = true },
			prof: stimProfile{n: 200, burstMean: 3, gapShort: 15, gapLong: 300_000, pLong: 0.4,
				pWrite: 0.25, pPrefetch: 0.1, rowSpan: 5000, footprint: 1 << 23},
		},
		{
			name: "rldram3-1rank", dcfg: dram.RLDRAM3Config, ranks: 1, seed: 6,
			prof: stimProfile{n: 400, burstMean: 8, gapShort: 5, gapLong: 50_000, pLong: 0.15,
				pWrite: 0.3, pPrefetch: 0.2, rowSpan: 4000, footprint: 1 << 22},
		},
		{
			name: "ddr3-2rank-write-heavy", dcfg: dram.DDR3Config, ranks: 2, seed: 7,
			prof: stimProfile{n: 400, burstMean: 10, gapShort: 3, gapLong: 25_000, pLong: 0.1,
				pWrite: 0.75, pPrefetch: 0.05, rowSpan: 6000, footprint: 1 << 23},
		},
		{
			name: "ddr3-4rank-prefetch-heavy", dcfg: dram.DDR3Config, ranks: 4, seed: 8,
			prof: stimProfile{n: 350, burstMean: 6, gapShort: 8, gapLong: 45_000, pLong: 0.2,
				pWrite: 0.1, pPrefetch: 0.6, rowSpan: 5000, footprint: 1 << 24},
		},
		{
			name: "rldram3-word-close-page", dcfg: dram.RLDRAM3WordConfig, ranks: 1, seed: 9,
			prof: stimProfile{n: 300, burstMean: 7, gapShort: 4, gapLong: 30_000, pLong: 0.15,
				pWrite: 0.2, pPrefetch: 0.3, rowSpan: 3000, footprint: 1 << 20},
		},
		{
			name: "hmcfast-32bank", dcfg: dram.HMCFastWordConfig, ranks: 1, seed: 10,
			prof: stimProfile{n: 300, burstMean: 6, gapShort: 6, gapLong: 40_000, pLong: 0.2,
				pWrite: 0.25, pPrefetch: 0.2, rowSpan: 4000, footprint: 1 << 20},
		},
		{
			name: "ddr3-16rank-manybanks", dcfg: dram.DDR3Config, ranks: 16, seed: 11,
			prof: stimProfile{n: 350, burstMean: 6, gapShort: 8, gapLong: 60_000, pLong: 0.2,
				pWrite: 0.3, pPrefetch: 0.15, rowSpan: 6000, footprint: 1 << 25},
		},
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/cmdtrace.golden")

// cmdTraceGoldenPath pins the scheduler's absolute decisions: one
// SHA-256 per differential profile over the skip side's command trace,
// rejects and Stat. The differential alone compares two modes of the
// same scheduler, so a change that moves both sides in step passes it;
// this file does not.
const cmdTraceGoldenPath = "testdata/cmdtrace.golden"

// traceDigest hashes one side's complete observable outcome.
func traceDigest(trace []diffCmd, rejects int, st Stat) string {
	h := sha256.New()
	for _, d := range trace {
		fmt.Fprintln(h, d)
	}
	fmt.Fprintf(h, "rejects %d\nstat %+v\n", rejects, st)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// readCmdTraceGolden loads profile name → digest.
func readCmdTraceGolden(t *testing.T) map[string]string {
	t.Helper()
	want := map[string]string{}
	f, err := os.Open(cmdTraceGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			want[fields[0]] = fields[1]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestTickSkipDifferential(t *testing.T) {
	var want map[string]string
	digests := map[string]string{}
	if *updateGolden {
		t.Cleanup(func() {
			lines := make([]string, 0, len(digests))
			for n, h := range digests {
				lines = append(lines, n+" "+h)
			}
			sort.Strings(lines)
			if err := os.WriteFile(cmdTraceGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d profiles)", cmdTraceGoldenPath, len(digests))
		})
	} else {
		want = readCmdTraceGolden(t)
	}
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := sim.NewRNG(tc.seed)
			stim := genStim(rng, tc.prof)
			ccfg := DefaultConfig(tc.dcfg().Kind)
			if tc.tweak != nil {
				tc.tweak(&ccfg)
			}
			ref, refRej, refStats := runDiffSide(t, tc.dcfg(), tc.ranks, ccfg, stim, true)
			got, gotRej, gotStats := runDiffSide(t, tc.dcfg(), tc.ranks, ccfg, stim, false)
			if refRej != gotRej {
				t.Errorf("rejects diverged: per-cycle %d, skip %d", refRej, gotRej)
			}
			n := len(ref)
			if len(got) < n {
				n = len(got)
			}
			for i := 0; i < n; i++ {
				if ref[i] != got[i] {
					lo := i - 3
					if lo < 0 {
						lo = 0
					}
					for j := lo; j <= i; j++ {
						t.Logf("cmd %d: per-cycle %v | skip %v", j, ref[j], got[j])
					}
					t.Fatalf("trace diverged at command %d: per-cycle %v, skip %v", i, ref[i], got[i])
				}
			}
			if len(ref) != len(got) {
				t.Fatalf("trace length diverged: per-cycle %d, skip %d commands", len(ref), len(got))
			}
			if refStats != gotStats {
				t.Errorf("stats diverged:\nper-cycle %+v\nskip      %+v", refStats, gotStats)
			}
			d := traceDigest(got, gotRej, gotStats)
			if *updateGolden {
				digests[tc.name] = d
				return
			}
			switch w, ok := want[tc.name]; {
			case !ok:
				t.Errorf("no entry in %s (run with -update to add it)", cmdTraceGoldenPath)
			case w != d:
				t.Errorf("command trace digest %s, golden %s: the scheduler's decisions changed", d, w)
			}
		})
	}
}

package hetsim_test

// The runnable examples: each one builds systems through the public API,
// runs them at TestScale and prints what a reader first looks at. Their
// `// Output:` blocks pin those prints, so a change that moves any of the
// numbers fails `go test .` even when every golden still passes.

import (
	"fmt"
	"log"
	"strings"

	"hetsim"
	"hetsim/internal/ecc"
	"hetsim/internal/exp"
)

// Example_quickstart builds the paper's flagship RL system (RLDRAM3
// critical words over LPDDR2 line channels), runs an mcf-like workload
// on 8 cores, and compares it against the all-DDR3 baseline.
func Example_quickstart() {
	scale := hetsim.TestScale() // a few thousand DRAM reads: seconds

	base, err := hetsim.NewSystem(hetsim.Baseline(8), "mcf")
	if err != nil {
		log.Fatal(err)
	}
	baseRes := base.Run(scale)

	rl, err := hetsim.NewSystem(hetsim.RL(8), "mcf")
	if err != nil {
		log.Fatal(err)
	}
	rlRes := rl.Run(scale)

	fmt.Println("mcf on 8 cores, DDR3 baseline vs RL (RLDRAM3+LPDDR2):")
	fmt.Printf("  %-28s %10s %10s\n", "", "DDR3", "RL")
	fmt.Printf("  %-28s %10.2f %10.2f\n", "sum IPC", baseRes.SumIPC, rlRes.SumIPC)
	fmt.Printf("  %-28s %10.1f %10.1f\n", "critical word latency (cyc)", baseRes.CritLatency, rlRes.CritLatency)
	fmt.Printf("  %-28s %10.1f %10.1f\n", "read queue latency (cyc)", baseRes.QueueLat, rlRes.QueueLat)
	fmt.Printf("  %-28s %10.1f %10.1f\n", "served by RLDRAM3 (%)", 0.0, rlRes.CritFromFastFrac*100)
	fmt.Printf("  %-28s %10.1f %10.1f\n", "DRAM power (mW)", baseRes.DRAMPowerMW, rlRes.DRAMPowerMW)
	fmt.Println()
	fmt.Println("mcf is a pointer chaser: most critical words are not word 0,")
	fmt.Println("so the static scheme forwards only ~25-30% from the fast channel.")
	fmt.Println("Try Example_pointerchase for the adaptive placement fix.")
	// Output:
	// mcf on 8 cores, DDR3 baseline vs RL (RLDRAM3+LPDDR2):
	//                                      DDR3         RL
	//   sum IPC                           25.95      25.76
	//   critical word latency (cyc)       143.9      148.6
	//   read queue latency (cyc)           98.1       61.0
	//   served by RLDRAM3 (%)               0.0       25.7
	//   DRAM power (mW)                  5647.9     4951.4
	//
	// mcf is a pointer chaser: most critical words are not word 0,
	// so the static scheme forwards only ~25-30% from the fast channel.
	// Try Example_pointerchase for the adaptive placement fix.
}

// Example_streaming runs the workloads the paper's introduction
// motivates — array scans (STREAM, libquantum, leslie3d) whose critical
// word is almost always word 0. It measures the Figure 4 word census
// and shows the RL system accelerating exactly these programs.
func Example_streaming() {
	scale := hetsim.TestScale()
	benches := []string{"stream", "libquantum", "leslie3d"}

	fmt.Println("Critical word census (fraction of LLC misses per word):")
	fmt.Printf("  %-12s %5s %5s %5s %5s %5s %5s %5s %5s\n",
		"benchmark", "w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7")
	for _, b := range benches {
		sys, err := hetsim.NewSystem(hetsim.Baseline(8), b)
		if err != nil {
			log.Fatal(err)
		}
		res := sys.Run(scale)
		fmt.Printf("  %-12s", b)
		for _, f := range res.CritWordFrac {
			fmt.Printf(" %5.2f", f)
		}
		fmt.Println()
	}

	fmt.Println("\nRL speedup for word-0-dominated scans:")
	fmt.Printf("  %-12s %12s %12s %10s %10s\n",
		"benchmark", "DDR3 critLat", "RL critLat", "fast-path", "IPC ratio")
	for _, b := range benches {
		base, err := hetsim.RunPair(hetsim.Baseline(8), b, scale)
		if err != nil {
			log.Fatal(err)
		}
		rl, err := hetsim.RunPair(hetsim.RL(8), b, scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %12.1f %12.1f %9.1f%% %10.3f\n",
			b, base.CritLatency, rl.CritLatency,
			rl.CritFromFastFrac*100, rl.Throughput/base.Throughput)
	}
	fmt.Println("\nWord 0 leads each line's burst, so the x9 RLDRAM3 sub-channel")
	fmt.Println("returns it tens of cycles before the LPDDR2 line completes.")
	// Output:
	// Critical word census (fraction of LLC misses per word):
	//   benchmark       w0    w1    w2    w3    w4    w5    w6    w7
	//   stream        0.95  0.02  0.01  0.01  0.01  0.00  0.00  0.00
	//   libquantum    0.95  0.01  0.01  0.01  0.01  0.00  0.00  0.01
	//   leslie3d      0.90  0.03  0.02  0.01  0.01  0.01  0.01  0.00
	//
	// RL speedup for word-0-dominated scans:
	//   benchmark    DDR3 critLat   RL critLat  fast-path  IPC ratio
	//   stream              155.4         92.2      89.5%      1.145
	//   libquantum          140.0         83.6      91.7%      1.205
	//   leslie3d            138.0         87.7      85.5%      1.158
	//
	// Word 0 leads each line's burst, so the x9 RLDRAM3 sub-channel
	// returns it tens of cycles before the LPDDR2 line completes.
}

// Example_pointerchase shows why mcf-like dependent random walks need
// more than static placement: they have no fixed critical word, so
// word-0 placement serves only a quarter of requests from the fast
// channel. It compares the paper's placement policies (§4.2.5, §6.1.1):
// static, adaptive, oracle and random.
func Example_pointerchase() {
	scale := hetsim.TestScale()
	bench := "mcf"

	policies := []struct {
		name   string
		policy hetsim.Placement
	}{
		{"RL static (word 0)", hetsim.PlaceStatic},
		{"RL adaptive (3-bit tag)", hetsim.PlaceAdaptive},
		{"RL oracle (upper bound)", hetsim.PlaceOracle},
		{"RL random (control)", hetsim.PlaceRandom},
	}

	base, err := hetsim.RunPair(hetsim.Baseline(8), bench, scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: placement policy comparison (8 cores)\n", bench)
	fmt.Printf("  %-26s %10s %12s %12s\n", "policy", "fast-path", "critLat", "vs baseline")
	fmt.Printf("  %-26s %10s %12.1f %12.3f\n", "DDR3 baseline", "—", base.CritLatency, 1.0)
	for _, p := range policies {
		cfg := hetsim.RL(8)
		cfg.Placement = p.policy
		cfg.Name = p.name
		res, err := hetsim.RunPair(cfg, bench, scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-26s %9.1f%% %12.1f %12.3f\n",
			p.name, res.CritFromFastFrac*100, res.CritLatency,
			res.Throughput/base.Throughput)
	}
	fmt.Println("\nAdaptive placement re-organizes a line on dirty write-back so its")
	fmt.Println("last-observed critical word moves to the RLDRAM3 sub-channel; the")
	fmt.Println("oracle bound shows what a perfect per-fetch predictor would earn.")
	// Output:
	// mcf: placement policy comparison (8 cores)
	//   policy                      fast-path      critLat  vs baseline
	//   DDR3 baseline                       —        143.9        1.000
	//   RL static (word 0)              25.7%        148.6        0.992
	//   RL adaptive (3-bit tag)         28.1%        142.0        1.002
	//   RL oracle (upper bound)         96.8%         49.3        1.150
	//   RL random (control)             12.7%        161.9        0.974
	//
	// Adaptive placement re-organizes a line on dirty write-back so its
	// last-observed critical word moves to the RLDRAM3 sub-channel; the
	// oracle bound shows what a perfect per-fetch predictor would earn.
}

// Example_energysweep tells the Figure 2 power story: why the paper
// uses RLDRAM3 sparingly (1/8th of capacity) and LPDDR2 for bulk. It
// prints per-chip power across bus utilizations and the measured DRAM
// energy split of an RL run.
func Example_energysweep() {
	// Analytic chip power vs utilization (Figure 2). The table pads its
	// last column; an Output block cannot hold trailing spaces, so each
	// line is trimmed.
	for _, line := range strings.Split(exp.Fig2().Table, "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}

	// Measured energy on a high-bandwidth workload.
	scale := hetsim.TestScale()
	bench := "mg"
	base, err := hetsim.NewSystem(hetsim.Baseline(8), bench)
	if err != nil {
		log.Fatal(err)
	}
	baseRes := base.Run(scale)
	rl, err := hetsim.NewSystem(hetsim.RL(8), bench)
	if err != nil {
		log.Fatal(err)
	}
	rlRes := rl.Run(scale)

	fmt.Printf("%s (8 cores): measured DRAM energy over the same work\n", bench)
	fmt.Printf("  %-22s %10s %10s\n", "", "DDR3", "RL")
	fmt.Printf("  %-22s %10.3f %10.3f\n", "DRAM energy (mJ)", baseRes.DRAMEnergyMJ, rlRes.DRAMEnergyMJ)
	fmt.Printf("  %-22s %10.0f %10.0f\n", "DRAM power (mW)", baseRes.DRAMPowerMW, rlRes.DRAMPowerMW)
	fmt.Printf("  %-22s %9.1f%% %9.1f%%\n", "line bus utilization", baseRes.BusUtil*100, rlRes.BusUtil*100)
	if baseRes.DRAMEnergyMJ > 0 {
		fmt.Printf("  memory energy ratio RL/DDR3 = %.3f\n", rlRes.DRAMEnergyMJ/baseRes.DRAMEnergyMJ)
	}
	fmt.Println("\n16 RLDRAM3 chips burn high background power, but each access")
	fmt.Println("activates 1 chip instead of 9, and the 32 LPDDR2 chips sleep")
	fmt.Println("aggressively — high-bandwidth workloads come out ahead.")
	// Output:
	// Figure 2: chip power vs bus utilization (mW per chip)
	// util  DDR3  RLDRAM3  LPDDR2
	// ----  ----  -------  ------
	//   0%  82    298      66
	//  10%  137   325      92
	//  20%  191   351      117
	//  30%  245   377      143
	//  40%  300   403      168
	//  50%  354   429      194
	//  60%  408   455      220
	//  70%  462   481      245
	//  80%  516   507      271
	//  90%  571   533      296
	// 100%  625   559      322
	//
	// mg (8 cores): measured DRAM energy over the same work
	//                                DDR3         RL
	//   DRAM energy (mJ)            0.360      0.307
	//   DRAM power (mW)              9295       9097
	//   line bus utilization        21.0%      48.5%
	//   memory energy ratio RL/DDR3 = 0.852
	//
	// 16 RLDRAM3 chips burn high background power, but each access
	// activates 1 chip instead of 9, and the 32 LPDDR2 chips sleep
	// aggressively — high-bandwidth workloads come out ahead.
}

// Example_faulttolerance tells the §4.2.3 story end to end. The critical
// word arrives early from RLDRAM guarded only by per-byte parity; SECDED
// over the full line is the backstop; and the same split generalizes to
// chipkill-class protection of the line DIMM.
func Example_faulttolerance() {
	// 1. Functional layer: parity gate + SECDED backstop.
	words := [8]uint64{0xdeadbeefcafebabe, 2, 3, 4, 5, 6, 7, 8}
	line := ecc.NewLine(words)

	fmt.Println("clean line:")
	fmt.Printf("  early delivery allowed: %v\n", line.CriticalDelivery())

	line.FlipBit(0, 17) // a single-bit fault in the critical word
	fmt.Println("single-bit fault in the critical word:")
	fmt.Printf("  early delivery allowed: %v (parity caught it)\n", line.CriticalDelivery())
	fixed, verdict := line.Verify()
	fmt.Printf("  SECDED verdict: %v, word restored: %v\n",
		verdict, fixed.Words[0] == words[0])

	// 2. Chipkill extension: a whole line-DIMM chip dies.
	ck := ecc.EncodeChipkill(words)
	var checks [8]uint8
	for i, w := range words {
		checks[i] = ecc.Encode(w)
	}
	if err := ck.KillChip(5); err != nil {
		log.Fatal(err)
	}
	recovered, err := ecc.RecoverChipkill(ck, checks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("chipkill (device 5 failed):")
	fmt.Printf("  full line recovered: %v\n", recovered == words)

	// 3. Performance effect: inject parity failures into a live system
	// and watch the critical word latency degrade toward line latency.
	scale := hetsim.TestScale()
	for _, rate := range []float64{0, 0.25, 1.0} {
		cfg := hetsim.RL(8)
		cfg.CritParityErrorRate = rate
		cfg.Name = fmt.Sprintf("RL-err%.0f%%", rate*100)
		sys, err := hetsim.NewSystem(cfg, "libquantum")
		if err != nil {
			log.Fatal(err)
		}
		res := sys.Run(scale)
		fmt.Printf("parity error rate %4.0f%%: crit latency %6.1f cycles (%d held)\n",
			rate*100, res.CritLatency, res.ParityErrors)
	}
	fmt.Println("\nWith every word held (100%), the early-delivery benefit is gone:")
	fmt.Println("the consumer always waits for the LPDDR2 line plus SECDED.")

	// 4. The fault-injection layer proper: a seed-driven environment
	// that corrupts real words in the timed path. Here a uniform
	// bit-fault rate exercises the hold/correct chain, then a scripted
	// DIMM death at cycle 1000 degrades the system to line-only
	// service — the run completes and says so.
	faulty, err := hetsim.ParseFaults("crit.bit=5e-3; line.bit=5e-3; seed=7")
	if err != nil {
		log.Fatal(err)
	}
	dead, err := hetsim.ParseFaults("@1000 dead crit")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninjected fault environments:")
	for _, env := range []struct {
		name string
		fc   hetsim.FaultConfig
	}{{"bit faults 5e-3", faulty}, {"crit DIMM death @1000", dead}} {
		cfg := hetsim.RL(8)
		cfg.Faults = env.fc
		cfg.Name = "RL+" + env.name
		sys, err := hetsim.NewSystem(cfg, "libquantum")
		if err != nil {
			log.Fatal(err)
		}
		res := sys.Run(scale)
		fmt.Printf("%-22s: IPC %5.2f  held %3d  escaped %2d  secded %3d  degraded fills %5d  degraded=%v\n",
			env.name, res.SumIPC, res.HeldWakes, res.CritEscapes,
			res.SECDEDCorrected, res.DegradedFills, res.Degraded)
	}
	// Output:
	// clean line:
	//   early delivery allowed: true
	// single-bit fault in the critical word:
	//   early delivery allowed: false (parity caught it)
	//   SECDED verdict: corrected, word restored: true
	// chipkill (device 5 failed):
	//   full line recovered: true
	// parity error rate    0%: crit latency   83.6 cycles (0 held)
	// parity error rate   25%: crit latency  138.2 cycles (1298 held)
	// parity error rate  100%: crit latency  231.9 cycles (4982 held)
	//
	// With every word held (100%), the early-delivery benefit is gone:
	// the consumer always waits for the LPDDR2 line plus SECDED.
	//
	// injected fault environments:
	// bit faults 5e-3       : IPC 19.69  held  19  escaped  0  secded  24  degraded fills     0  degraded=false
	// crit DIMM death @1000 : IPC 12.80  held   0  escaped  0  secded   0  degraded fills  4846  degraded=true
}

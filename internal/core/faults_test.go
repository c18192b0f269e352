package core

import (
	"reflect"
	"testing"

	"hetsim/internal/cache"
	"hetsim/internal/faults"
	"hetsim/internal/topology"
)

// TestArmedIdleFaultLayerIsByteIdentical: a config whose fault layer is
// active (non-empty schedule) but never fires inside the run must
// reproduce the clean run exactly — the injector changes nothing until
// a fault actually lands.
func TestArmedIdleFaultLayerIsByteIdentical(t *testing.T) {
	clean := runOne(t, RL(4), "libquantum")
	cfg := RL(4)
	cfg.Faults.Schedule = []faults.Event{
		{At: 1 << 40, Kind: faults.DIMMDead, Target: faults.Crit, Channel: -1, Chip: -1}}
	armed := runOne(t, cfg, "libquantum")
	if !reflect.DeepEqual(clean, armed) {
		t.Errorf("armed-but-idle fault layer changed results:\n got %+v\nwant %+v", armed, clean)
	}
}

// TestCritFaultHoldsWake exercises the §4.2.3 fallback: a corrupted
// critical word dirties its per-byte parity, so the CPU wake is held
// until the SECDED-corrected line lands. A sixteenth of injected faults
// flip a second bit in the same byte and evade parity (counted as
// escapes, flagged by SECDED at line arrival).
func TestCritFaultHoldsWake(t *testing.T) {
	clean := runOne(t, RL(4), "libquantum")
	cfg := RL(4)
	cfg.Faults.Crit.TransientBit = 0.2
	cfg.Faults.Seed = 5
	r := runOne(t, cfg, "libquantum")
	if r.HeldWakes == 0 {
		t.Fatal("no held wakes despite a 20% crit fault rate")
	}
	if r.CritEscapes == 0 {
		t.Error("no parity escapes despite hundreds of injected crit faults")
	}
	if !(r.CritLatency > clean.CritLatency) {
		t.Errorf("held wakes did not raise crit latency: %v vs clean %v",
			r.CritLatency, clean.CritLatency)
	}
	if r.SumIPC <= 0 {
		t.Fatal("faulty run made no progress")
	}
}

// TestLineSECDEDCorrectionCounted: single-bit line faults are corrected
// by the (72,64) decoder, each charging SECDEDLatency before the line
// is usable, on split and non-split organizations alike.
func TestLineSECDEDCorrectionCounted(t *testing.T) {
	for _, mk := range []func(int) SystemConfig{RL, Baseline} {
		cfg := mk(4)
		cfg.Faults.Line.TransientBit = 0.3
		cfg.Faults.Seed = 5
		r := runOne(t, cfg, "libquantum")
		if r.SECDEDCorrected == 0 {
			t.Errorf("%s: no SECDED corrections despite a 30%% line fault rate", cfg.Name)
		}
		if r.SumIPC <= 0 {
			t.Errorf("%s: faulty run made no progress", cfg.Name)
		}
	}
}

// TestScriptedChipkillReconstructs: a scripted chip-kill on one line
// channel leaves the run completing normally, with every later read of
// that channel rebuilt through the chipkill parity chip.
func TestScriptedChipkillReconstructs(t *testing.T) {
	cfg := RL(4)
	cfg.Faults.Seed = 5
	cfg.Faults.Schedule = []faults.Event{
		{At: 1000, Kind: faults.ChipKill, Target: faults.Line, Channel: 0, Chip: 3}}
	r := runOne(t, cfg, "libquantum")
	if r.Reconstructions == 0 {
		t.Fatal("no chipkill reconstructions after a scripted chip kill")
	}
	if r.Degraded {
		t.Error("a line-channel chip kill must not degrade the crit path")
	}
	if r.DemandReads < 1000 {
		t.Fatalf("run too short after chip kill: %d reads", r.DemandReads)
	}
}

// TestDeadCritDIMMDegrades: losing the whole RLDRAM critical-word DIMM
// degrades the system to line-only service — CWF disabled, the run
// continues and reports the mode.
func TestDeadCritDIMMDegrades(t *testing.T) {
	clean := runOne(t, RL(4), "libquantum")
	cfg := RL(4)
	cfg.Faults.Schedule = []faults.Event{
		{At: 1000, Kind: faults.DIMMDead, Target: faults.Crit, Channel: -1, Chip: -1}}
	r := runOne(t, cfg, "libquantum")
	if !r.Degraded {
		t.Fatal("system not marked degraded after crit DIMM death")
	}
	if r.DegradedFills == 0 {
		t.Fatal("no degraded (line-only) fills counted")
	}
	if r.CritFromFastFrac > 0.1 {
		t.Errorf("fast-path fraction %v after DIMM death, want ~0", r.CritFromFastFrac)
	}
	if r.DemandReads < 1000 {
		t.Fatalf("degraded run too short: %d reads", r.DemandReads)
	}
	if !(r.SumIPC < clean.SumIPC) {
		t.Errorf("degraded IPC %v not below clean %v (CWF benefit should be gone)",
			r.SumIPC, clean.SumIPC)
	}
}

// TestValidateRejectsDegenerateConfigs is the front-door guard: every
// config that would panic deep inside construction or mid-run must be
// a clean error from Validate instead.
func TestValidateRejectsDegenerateConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*SystemConfig)
		ok   bool
	}{
		{"valid RL", func(c *SystemConfig) {}, true},
		{"zero cores", func(c *SystemConfig) { c.NCores = 0 }, false},
		{"negative cores", func(c *SystemConfig) { c.NCores = -3 }, false},
		{"absurd cores", func(c *SystemConfig) { c.NCores = 65 }, false},
		{"unknown placement", func(c *SystemConfig) { c.Placement = Placement(9) }, false},
		{"unknown mapping", func(c *SystemConfig) { c.LineMapping = Mapping(9) }, false},
		{"negative ROB", func(c *SystemConfig) { c.ROBSize = -1 }, false},
		{"parity rate above one", func(c *SystemConfig) { c.CritParityErrorRate = 1.5 }, false},
		{"fault rate above one", func(c *SystemConfig) { c.Faults.Crit.TransientBit = 2 }, false},
		{"fault channel out of range", func(c *SystemConfig) {
			c.Faults.Schedule = []faults.Event{
				{At: 0, Kind: faults.Flip, Target: faults.Line, Channel: Channels, Chip: -1}}
		}, false},
		{"fault chip out of range", func(c *SystemConfig) {
			c.Faults.Schedule = []faults.Event{
				{At: 0, Kind: faults.ChipKill, Target: faults.Line, Channel: 0, Chip: 8}}
		}, false},
		{"valid fault schedule", func(c *SystemConfig) {
			c.Faults.Schedule = []faults.Event{
				{At: 100, Kind: faults.ChipKill, Target: faults.Line, Channel: 0, Chip: 3}}
		}, true},
	}
	for _, tc := range cases {
		cfg := RL(4)
		tc.mut(&cfg)
		err := cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: Validate accepted a degenerate config", tc.name)
		}
		if !tc.ok {
			if _, nerr := NewSystem(cfg, mustSpec(t, "libquantum")); nerr == nil {
				t.Errorf("%s: NewSystem accepted a degenerate config", tc.name)
			}
		}
	}
}

// TestLineFaultsFollowBackendRouting scripts a chip-kill on line channel
// 5 of an eight-line topology: the schedule must validate, and only the
// lines the backend routes to channel 5 may pay reconstruction.
func TestLineFaultsFollowBackendRouting(t *testing.T) {
	cfg := RL(2)
	spec, err := topology.Parse("crit:rldram3x2+line:ddr3x8")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = spec
	if cfg.Faults, err = faults.Parse("@0 chipkill line 5 3"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("chip-kill on line channel 5 rejected: %v", err)
	}
	sys, err := NewSystem(cfg, mustSpec(t, "libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	h := sys.Hier
	for la := uint64(0); la < 64; la++ {
		before := h.Stat.Reconstructions
		h.onLine(&cache.Entry{LineAddr: la})
		if paid, want := h.Stat.Reconstructions > before, la%8 == 5; paid != want {
			t.Errorf("line %d (channel %d): reconstruction paid %v, want %v", la, la%8, paid, want)
		}
	}
}

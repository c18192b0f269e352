package grid

import (
	"strings"
	"testing"

	"hetsim/internal/core"
)

func TestConfigNamesAllResolve(t *testing.T) {
	for _, name := range ConfigNames() {
		cfg, err := Config(name, 8)
		if err != nil {
			t.Fatalf("Config(%q): %v", name, err)
		}
		if cfg.NCores != 8 {
			t.Fatalf("Config(%q) cores = %d", name, cfg.NCores)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Config(%q) invalid: %v", name, err)
		}
		// Case-insensitive, like the CLIs always were.
		if _, err := Config(strings.ToUpper(name), 8); err != nil {
			t.Fatalf("Config(%q) not case-insensitive", name)
		}
	}
	if _, err := Config("nonsense", 8); err == nil {
		t.Fatal("unknown config accepted")
	}
}

func TestScaleNames(t *testing.T) {
	for _, name := range []string{"quick", "test", "bench", "paper"} {
		s, err := Scale(name)
		if err != nil {
			t.Fatalf("Scale(%q): %v", name, err)
		}
		if s.MeasureReads == 0 {
			t.Fatalf("Scale(%q) has zero measured reads", name)
		}
	}
	if _, err := Scale("huge"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestApply(t *testing.T) {
	cases := []struct {
		param, value string
		check        func(cfg core.SystemConfig, sc core.RunScale) bool
	}{
		{"robsize", "128", func(c core.SystemConfig, s core.RunScale) bool { return c.ROBSize == 128 }},
		{"cores", "4", func(c core.SystemConfig, s core.RunScale) bool { return c.NCores == 4 }},
		{"parityrate", "0.25", func(c core.SystemConfig, s core.RunScale) bool { return c.CritParityErrorRate == 0.25 }},
		{"faultrate", "1e-4", func(c core.SystemConfig, s core.RunScale) bool {
			return c.Faults.Crit.TransientBit == 1e-4 && c.Faults.Line.TransientBit == 1e-4
		}},
		{"reads", "5000", func(c core.SystemConfig, s core.RunScale) bool {
			return s.MeasureReads == 5000 && s.WarmupReads == 500
		}},
	}
	for _, tc := range cases {
		cfg := core.RL(8)
		sc := core.TestScale()
		if err := Apply(&cfg, &sc, tc.param, tc.value); err != nil {
			t.Fatalf("Apply(%s=%s): %v", tc.param, tc.value, err)
		}
		if !tc.check(cfg, sc) {
			t.Fatalf("Apply(%s=%s) did not take effect", tc.param, tc.value)
		}
		want := "RL[" + tc.param + "=" + tc.value + "]"
		if cfg.Name != want {
			t.Fatalf("Apply(%s=%s) name = %q, want %q", tc.param, tc.value, cfg.Name, want)
		}
	}

	cfg := core.RL(8)
	sc := core.TestScale()
	if err := Apply(&cfg, &sc, "warp", "9"); err == nil {
		t.Fatal("unknown parameter accepted")
	}
	if err := Apply(&cfg, &sc, "robsize", "not-a-number"); err == nil {
		t.Fatal("malformed value accepted")
	}
}

func TestTopologyNamesAllResolve(t *testing.T) {
	for _, name := range TopologyNames() {
		spec, err := ParseTopology(name)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", name, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseTopology(%q) invalid: %v", name, err)
		}
		if _, err := ParseTopology(strings.ToUpper(name)); err != nil {
			t.Fatalf("ParseTopology(%q) not case-insensitive", name)
		}
	}
	// The named organizations must match the presets they stand for, so
	// a -topology run shares cache entries with the named config's runs.
	for name, mk := range map[string]func(int) core.SystemConfig{
		"cwf-rl": core.RL, "cwf-rd": core.RD, "cwf-dl": core.DL,
		"unified-ddr3": core.Baseline, "hmc-mix": core.HMCHetero,
		"dram-cache": core.DRAMCached,
	} {
		spec, err := ParseTopology(name)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", name, err)
		}
		if want := mk(8).Topology; spec.Canonical() != want.Canonical() {
			t.Errorf("topology %q = %s, preset has %s", name, spec.Canonical(), want.Canonical())
		}
	}
}

func TestParseTopologyRawSpec(t *testing.T) {
	spec, err := ParseTopology("crit:ddr3x2+line:lpddr2x4")
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Canonical(); got != "crit:ddr3x2+line:lpddr2x4" {
		t.Fatalf("raw spec canonicalized to %q", got)
	}
	if _, err := ParseTopology("crit:ddr5x4+line:lpddr2x4"); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if _, err := ParseTopology(""); err == nil {
		t.Fatal("empty topology accepted")
	}
}

func TestApplyTopology(t *testing.T) {
	cfg := core.RL(8)
	if err := ApplyTopology(&cfg, "dram-cache"); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Topology.Canonical(); got != "cache-tier:rldram3x1:cap=64+far-tier:lpddr2x4" {
		t.Fatalf("topology = %s", got)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("applied config invalid: %v", err)
	}
	want := "RL[topology=cache-tier:rldram3x1:cap=64+far-tier:lpddr2x4]"
	if cfg.Name != want {
		t.Fatalf("name = %q, want %q", cfg.Name, want)
	}
	if err := ApplyTopology(&cfg, "crit:nonsense"); err == nil {
		t.Fatal("malformed topology accepted")
	}
}

package core

import (
	"reflect"
	"testing"

	"hetsim/internal/dram"
	"hetsim/internal/faults"
	"hetsim/internal/topology"
)

// TestConfigKeyCoversSystemConfig enforces by reflection that every
// SystemConfig field is accounted for in ConfigKey. Adding a field to
// SystemConfig without updating this mapping (and Key) fails here, so
// the memo cache can never silently alias two distinct configurations
// the way the old fmt.Sprint string key could.
//
// Exclusion rules — a SystemConfig field may map to nil (no key
// presence) only if one of these holds, stated next to the entry:
//
//  1. Execution hook: the field observes or controls a run without
//     changing a completed run's Results (TraceFn, Cancel).
//  2. Collapsed representation: the field's behavioural content is
//     carried by another key field — it must be listed as mapping to
//     that field, never to nil (HotPages → its digest pair).
//
// Anything else MUST appear in the key under its own name. When in
// doubt, key it: a spurious key field costs a duplicate cache entry, a
// missing one silently aliases distinct configurations.
func TestConfigKeyCoversSystemConfig(t *testing.T) {
	// How each SystemConfig field appears in ConfigKey. nil =
	// deliberately excluded per the rules above (justified in the
	// comment); multiple targets = collapsed representation.
	mapping := map[string][]string{
		"Name":   {"Name"},
		"NCores": {"NCores"},
		// The spec keys as its canonical string, plus the page-shape
		// flag the key carried before page placement was a topology.
		"Topology":            {"Topology", "PagePlacement"},
		"Placement":           {"Placement"},
		"Prefetch":            {"Prefetch"},
		"DeepSleepLP":         {"DeepSleepLP"},
		"HotPages":            {"HotPagesLen", "HotPagesDigest"},
		"CritParityErrorRate": {"CritParityErrorRate"},
		"Faults":              {"Faults"},
		"TrackPerLine":        {"TrackPerLine"},
		"LineMapping":         {"LineMapping"},
		"ROBSize":             {"ROBSize"},
		"FCFS":                {"FCFS"},
		"ClosePageLines":      {"ClosePageLines"},
		"Seed":                {"Seed"},
		// TraceFn is an observation hook; its doc comment declares it
		// "not part of a configuration's identity".
		"TraceFn": nil,
		// Cancel is an execution-control hook (deadline/context
		// cancellation): a run that completes was never affected by it,
		// and a canceled run is discarded, so it cannot alias results.
		"Cancel": nil,
	}

	cfgT := reflect.TypeOf(SystemConfig{})
	keyT := reflect.TypeOf(ConfigKey{})
	keyFields := map[string]bool{}
	for i := 0; i < keyT.NumField(); i++ {
		keyFields[keyT.Field(i).Name] = true
	}

	covered := map[string]bool{}
	for i := 0; i < cfgT.NumField(); i++ {
		name := cfgT.Field(i).Name
		targets, ok := mapping[name]
		if !ok {
			t.Errorf("SystemConfig.%s is not accounted for in ConfigKey: "+
				"add it to SystemConfig.Key (or deliberately exclude it here "+
				"under the exclusion rules)", name)
			continue
		}
		for _, kf := range targets {
			if !keyFields[kf] {
				t.Errorf("SystemConfig.%s maps to missing ConfigKey field %s", name, kf)
			}
			covered[kf] = true
		}
	}
	for name := range mapping {
		if _, ok := cfgT.FieldByName(name); !ok {
			t.Errorf("mapping entry %s names no SystemConfig field (stale entry?)", name)
		}
	}
	for kf := range keyFields {
		if !covered[kf] {
			t.Errorf("ConfigKey.%s corresponds to no SystemConfig field", kf)
		}
	}
}

// TestConfigKeyDistinguishes flips every key-relevant field of a config
// one at a time and asserts the key changes — differing configs never
// collide in the memo cache.
func TestConfigKeyDistinguishes(t *testing.T) {
	base := RL(8)
	variants := map[string]SystemConfig{}
	add := func(name string, mut func(*SystemConfig)) {
		c := base
		mut(&c)
		variants[name] = c
	}
	add("Name", func(c *SystemConfig) { c.Name = "other" })
	add("NCores", func(c *SystemConfig) { c.NCores = 4 })
	// Organization variants are spec mutations of RL's crit:rldram3x4+
	// line:lpddr2x4.
	cwf := func(crit dram.Kind, critN int, line dram.Kind, bus topology.BusWiring, wide bool) func(*SystemConfig) {
		return func(c *SystemConfig) { c.Topology = topology.CWF(crit, critN, line, Channels, bus, wide) }
	}
	add("Topology.CritKind", cwf(dram.DDR3, Channels, dram.LPDDR2, topology.BusDefault, false))
	add("Topology.LineKind", cwf(dram.RLDRAM3, Channels, dram.DDR3, topology.BusDefault, false))
	add("Topology.PrivateBus", cwf(dram.RLDRAM3, Channels, dram.LPDDR2, topology.BusPrivate, false))
	add("Topology.WideRank", cwf(dram.RLDRAM3, 1, dram.LPDDR2, topology.BusDefault, true))
	add("Topology.Unified", func(c *SystemConfig) { c.Topology = topology.Unified(dram.LPDDR2, Channels) })
	add("Topology.Cache", func(c *SystemConfig) {
		c.Topology = topology.DRAMCache(dram.RLDRAM3, 1, 64, dram.LPDDR2, Channels)
	})
	add("Topology.Page", func(c *SystemConfig) {
		c.Topology = topology.PagePlaced(dram.RLDRAM3, 1, dram.LPDDR2, Channels-1)
	})
	add("Placement", func(c *SystemConfig) { c.Placement = PlaceOracle })
	add("Prefetch", func(c *SystemConfig) { c.Prefetch = false })
	add("DeepSleepLP", func(c *SystemConfig) { c.DeepSleepLP = true })
	add("HotPages", func(c *SystemConfig) { c.HotPages = map[uint64]bool{7: true} })
	add("CritParityErrorRate", func(c *SystemConfig) { c.CritParityErrorRate = 0.5 })
	add("Faults.Rates", func(c *SystemConfig) { c.Faults.Crit.TransientBit = 1e-4 })
	add("Faults.Seed", func(c *SystemConfig) { c.Faults.Seed = 9 })
	add("Faults.Schedule", func(c *SystemConfig) {
		c.Faults.Schedule = []faults.Event{{At: 10, Kind: faults.Flip, Target: faults.Crit, Channel: -1, Chip: -1}}
	})
	add("TrackPerLine", func(c *SystemConfig) { c.TrackPerLine = true })
	add("LineMapping", func(c *SystemConfig) { c.LineMapping = MapXOR })
	add("ROBSize", func(c *SystemConfig) { c.ROBSize = 128 })
	add("FCFS", func(c *SystemConfig) { c.FCFS = true })
	add("ClosePageLines", func(c *SystemConfig) { c.ClosePageLines = true })
	add("Seed", func(c *SystemConfig) { c.Seed = 99 })

	baseKey := base.Key()
	for name, v := range variants {
		if v.Key() == baseKey {
			t.Errorf("flipping %s did not change the ConfigKey", name)
		}
	}

	// The old fmt.Sprint key collided configs that differed only in a
	// field missing from the format string (e.g. FCFS); prove the
	// struct key separates two such realistic configs.
	a := Baseline(8)
	b := Baseline(8)
	b.FCFS = true
	if a.Key() == b.Key() {
		t.Error("FCFS on/off configs collide")
	}
}

// TestHotPagesDigestOrderIndependent checks the digest ignores map
// iteration order and false entries but sees membership changes.
func TestHotPagesDigestOrderIndependent(t *testing.T) {
	a := map[uint64]bool{1: true, 2: true, 3: true}
	b := map[uint64]bool{3: true, 2: true, 1: true, 4: false}
	if hotPagesDigest(a) != hotPagesDigest(b) {
		t.Error("digest depends on order or false entries")
	}
	c := map[uint64]bool{1: true, 2: true, 5: true}
	if hotPagesDigest(a) == hotPagesDigest(c) {
		t.Error("digest blind to membership change")
	}
	if hotPagesDigest(nil) != 0 {
		t.Error("nil set digest not zero")
	}
}

package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hetsim/internal/dram"
	"hetsim/internal/faults"
	"hetsim/internal/telemetry"
	"hetsim/internal/topology"
	"hetsim/internal/trace"
)

// orgGoldenPath holds the organization golden file. Each line of a
// golden file is "<section> <name> <value>"; this one's sections are:
//   - org: one SHA-256 per organization case over its simulated
//     behaviour (TestSystemTopologyDifferential);
//   - work: that case's exact work counters, host events included, as
//     integers (TestSystemTopologyDifferential);
//   - runkey: one store.RunKey hash per named grid config
//     (TestRunKeyHashGolden).
const orgGoldenPath = "testdata/organizations.golden"

// readGoldenSection returns the section's entries in the golden file
// at path and, separately, the raw lines of every other section.
func readGoldenSection(t *testing.T, path, section string) (map[string]string, []string) {
	t.Helper()
	want := map[string]string{}
	var other []string
	f, err := os.Open(path)
	if os.IsNotExist(err) && *updateGolden {
		return want, nil
	}
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			continue
		}
		if fields[0] == section {
			want[fields[1]] = fields[2]
		} else {
			other = append(other, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want, other
}

// goldenSection returns the section's golden entries (name → value)
// in the golden file at path. Under -update it returns an empty map
// and, when the test ends, rewrites the section from got, leaving every
// other section's lines as the file holds them then.
func goldenSection(t *testing.T, path, section string, got map[string]string) map[string]string {
	t.Helper()
	if !*updateGolden {
		want, _ := readGoldenSection(t, path, section)
		return want
	}
	t.Cleanup(func() {
		_, lines := readGoldenSection(t, path, section)
		for n, h := range got {
			lines = append(lines, fmt.Sprintf("%s %s %s", section, n, h))
		}
		sort.Strings(lines)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote section %s of %s (%d entries)", section, path, len(got))
	})
	return map[string]string{}
}

// checkDigest compares one digest or counter against its golden entry;
// under -update every value is accepted.
func checkDigest(t *testing.T, want map[string]string, name, got string) {
	t.Helper()
	if *updateGolden {
		return
	}
	switch w, ok := want[name]; {
	case !ok:
		t.Errorf("%s: no golden entry (run with -update to add it)", name)
	case w != got:
		t.Errorf("%s = %s, golden %s", name, got, w)
	}
}

// appendBits encodes a reflected value for digesting: every scalar as
// one little-endian word (floats by bit pattern), strings and slices
// length-prefixed, structs and arrays field by field, pointers behind a
// presence byte.
func appendBits(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.LittleEndian.AppendUint64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Len()))
		return append(b, v.String()...)
	case reflect.Slice:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Len()))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = appendBits(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendBits(b, v.Field(i))
		}
		return b
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return appendBits(append(b, 1), v.Elem())
	default:
		panic(fmt.Sprintf("appendBits: unsupported kind %v (%v)", v.Kind(), v.Type()))
	}
}

// runDigest runs one config/benchmark and digests its simulated
// behaviour: the summary Results (every field), the full fill trace,
// and the serialized epoch stream without its host-work column. It also
// returns the run's work counters.
func runDigest(t *testing.T, cfg SystemConfig, bench string) (string, map[string]uint64) {
	t.Helper()
	var recs []trace.Record
	cfg.TraceFn = func(r trace.Record) { recs = append(recs, r) }
	sys, err := NewSystem(cfg, mustSpec(t, bench))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(RunScale{WarmupReads: 150, MeasureReads: 900,
		MaxCycles: 20_000_000, EpochInterval: 20_000})
	var epochs bytes.Buffer
	if res.Epochs == nil {
		t.Fatal("no epochs recorded")
	}
	if err := res.Epochs.WriteJSONL(&epochs, nil, nil); err != nil {
		t.Fatal(err)
	}
	res.Epochs = nil // digested via the serialized stream
	b := appendBits(nil, reflect.ValueOf(res))
	b = appendBits(b, reflect.ValueOf(recs))
	b = append(b, stripHostWork(epochs.Bytes())...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), workCounters(sys)
}

// simEventsCol is the sim.events column of an epoch JSONL row.
var simEventsCol = regexp.MustCompile(`"sim\.events":[0-9]+,`)

// stripHostWork drops the sim.events column from a serialized epoch
// stream. sim.events counts the events the engine dispatched: the
// simulator's own work, not the simulated machine's. Removing events
// (tick skipping, say) must leave behaviour byte-identical, so the
// behaviour comparisons exclude it and the work section pins it
// exactly instead.
func stripHostWork(jsonl []byte) []byte { return simEventsCol.ReplaceAll(jsonl, nil) }

// workCounters reads a finished run's exact work counters from the
// registry's whole-run levels: engine events, demand fills, MSHR
// merges, DRAM commands (acts, reads, writes and refreshes over every
// channel group), and controller row misses and write drains. It adds
// the cores' Step calls (cpu.Steps), which live outside the registry.
func workCounters(sys *System) map[string]uint64 {
	snap := sys.Reg.Snapshot(sys.Eng.Now())
	v := telemetry.NewView(sys.Reg, snap, snap)
	w := map[string]uint64{}
	for _, name := range sys.Reg.Names() {
		n := uint64(v.Level(name))
		last := name[strings.LastIndexByte(name, '.')+1:]
		switch {
		case name == "sim.events", name == "hier.demand_fills", name == "hier.merged_misses":
			w[name] = n
		case strings.HasPrefix(name, "mem.g"):
			switch last {
			case "acts", "reads", "writes", "refreshes":
				w["dram.cmds"] += n
			case "row_misses", "drains":
				w["memctrl."+last] += n
			}
		}
	}
	for _, c := range sys.Cores {
		w["cpu.steps"] += c.Steps
	}
	return w
}

// goldenHotPages is a fixed hot-page set for the page-placement case:
// every fourth 4KB page of the first two cores' address regions.
func goldenHotPages() map[uint64]bool {
	hot := map[uint64]bool{}
	for p := uint64(0); p < 2*coreRegionBytes/4096; p += 4 {
		hot[p] = true
	}
	return hot
}

// TestSystemTopologyDifferential pins every memory organization — each
// named preset and each ablation and policy path that keys off the
// organization — to the digest of its results, fill trace and epoch
// stream. The digests were generated by the code that spelled these
// organizations with dedicated config booleans, before those fields
// were folded into topology presets, so every preset is checked
// against the bytes of the code it replaced.
//
// The same runs pin each case's work counters in the work section.
// They repeat bit for bit, so any change fails: a change that removes
// engine events shows up as a diff of the work lines alone, with every
// org digest unchanged.
func TestSystemTopologyDifferential(t *testing.T) {
	privBus := RL(2)
	privBus.Topology = topology.CWF(dram.RLDRAM3, Channels, dram.LPDDR2, Channels, topology.BusPrivate, false)
	wide := RL(2)
	wide.Topology = topology.CWF(dram.RLDRAM3, 1, dram.LPDDR2, Channels, topology.BusDefault, true)
	closePage := RL(2)
	closePage.ClosePageLines = true
	deepSleep := RL(2)
	deepSleep.DeepSleepLP = true
	adaptive := RL(2)
	adaptive.Placement = PlaceAdaptive
	oracle := RL(2)
	oracle.Placement = PlaceOracle
	parity := RL(2)
	parity.CritParityErrorRate = 0.02
	faulty := RL(2)
	faulty.Faults.Crit.TransientBit = 0.05
	faulty.Faults.Seed = 5
	dimmDead := RL(2)
	dimmDead.Faults.Schedule = []faults.Event{
		{At: 40_000, Kind: faults.DIMMDead, Target: faults.Crit, Channel: -1, Chip: -1}}

	cases := []struct {
		name  string
		cfg   SystemConfig
		bench string
	}{
		{"baseline-ddr3", Baseline(2), "libquantum"},
		{"lpddr2-homog", HomogeneousLPDDR2(2), "libquantum"},
		{"rldram3-homog", HomogeneousRLDRAM3(2), "libquantum"},
		{"rl", RL(2), "libquantum"},
		{"rd", RD(2), "mcf"},
		{"dl", DL(2), "libquantum"},
		{"hmc-hetero", HMCHetero(2), "libquantum"},
		{"rl-private-crit-cmdbus", privBus, "libquantum"},
		{"rl-wide-rank", wide, "libquantum"},
		{"rl-close-page-lines", closePage, "libquantum"},
		{"rl-deep-sleep", deepSleep, "libquantum"},
		{"rl-adaptive", adaptive, "mcf"},
		{"rl-oracle", oracle, "libquantum"},
		{"rl-crit-parity", parity, "libquantum"},
		{"rl-crit-faults", faulty, "libquantum"},
		{"rl-dimm-dead", dimmDead, "libquantum"},
		{"page-placed", PagePlaced(2, goldenHotPages()), "libquantum"},
		{"dram-cache", DRAMCached(2), "mcf"},
	}
	got, gotWork := map[string]string{}, map[string]string{}
	want := goldenSection(t, orgGoldenPath, "org", got)
	wantWork := goldenSection(t, orgGoldenPath, "work", gotWork)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			digest, work := runDigest(t, tc.cfg, tc.bench)
			got[tc.name] = digest
			checkDigest(t, want, tc.name, digest)
			for n, v := range work {
				key := tc.name + "/" + n
				gotWork[key] = strconv.FormatUint(v, 10)
				checkDigest(t, wantWork, key, gotWork[key])
			}
		})
	}
}

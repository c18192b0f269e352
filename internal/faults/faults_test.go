package faults

import (
	"math"
	"reflect"
	"testing"

	"hetsim/internal/ecc"
	"hetsim/internal/sim"
)

// sim0 keeps test call sites short.
func sim0(i int) sim.Cycle { return sim.Cycle(i) }

func TestInactiveConfigBuildsNoInjector(t *testing.T) {
	if in := New(Config{}, 4); in != nil {
		t.Fatalf("zero Config must build a nil injector, got %+v", in)
	}
	if in := New(Config{Seed: 99}, 4); in != nil {
		t.Fatal("a bare seed with no rates/schedule must stay inert")
	}
	if in := New(Config{Crit: Rates{TransientBit: 0.1}}, 4); in == nil {
		t.Fatal("nonzero rate must build an injector")
	}
	if in := New(Config{Schedule: []Event{{At: 5, Kind: Flip, Target: Crit, Channel: -1, Chip: -1}}}, 4); in == nil {
		t.Fatal("non-empty schedule must build an injector")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"rates", Config{Crit: Rates{TransientBit: 1e-3}, Line: Rates{ChipKill: 1}}, true},
		{"negative rate", Config{Crit: Rates{TransientBit: -0.1}}, false},
		{"rate above one", Config{Line: Rates{StuckBit: 1.5}}, false},
		{"nan rate", Config{Line: Rates{TransientBit: math.NaN()}}, false},
		{"good schedule", Config{Schedule: []Event{
			{At: 10, Kind: Flip, Target: Crit, Channel: -1, Chip: -1},
			{At: 20, Kind: ChipKill, Target: Line, Channel: 3, Chip: 7},
			{At: 30, Kind: DIMMDead, Target: Crit, Channel: -1, Chip: -1},
		}}, true},
		{"channel out of range", Config{Schedule: []Event{
			{At: 10, Kind: Flip, Target: Line, Channel: 4, Chip: -1}}}, false},
		{"chip out of range", Config{Schedule: []Event{
			{At: 10, Kind: ChipKill, Target: Line, Channel: 0, Chip: ecc.ChipsPerRank}}}, false},
		{"dead on line", Config{Schedule: []Event{
			{At: 10, Kind: DIMMDead, Target: Line, Channel: 0, Chip: -1}}}, false},
		{"negative cycle", Config{Schedule: []Event{
			{At: -1, Kind: Flip, Target: Crit, Channel: -1, Chip: -1}}}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate(4)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected a validation error", c.name)
		}
	}
}

func TestScheduledCritFlipHolds(t *testing.T) {
	in := New(Config{Seed: 7, Schedule: []Event{
		{At: 100, Kind: Flip, Target: Crit, Channel: -1, Chip: -1},
	}}, 4)
	if out := in.CritRead(50, 0x1000); out != CritClean {
		t.Fatalf("before the scripted cycle reads are clean, got %v", out)
	}
	out := in.CritRead(100, 0x1000)
	if out != CritHeld && out != CritEscaped {
		t.Fatalf("the armed flip must corrupt the read, got %v", out)
	}
	if again := in.CritRead(101, 0x1000); again != CritClean {
		t.Fatalf("a scripted flip is one-shot, got %v on the next read", again)
	}
	c := in.Counts()
	if c.Injected != 1 || c.Held+c.Escaped != 1 {
		t.Fatalf("counts = %+v, want exactly one injection classified held or escaped", c)
	}
}

func TestTransientCritFaultsMostlyHeld(t *testing.T) {
	in := New(Config{Crit: Rates{TransientBit: 1}, Seed: 3}, 4)
	held, escaped := 0, 0
	for i := 0; i < 2000; i++ {
		switch in.CritRead(sim0(i), uint64(i)*64) {
		case CritHeld:
			held++
		case CritEscaped:
			escaped++
		default:
			t.Fatal("rate 1 must fault every read")
		}
	}
	if held == 0 || escaped == 0 {
		t.Fatalf("expect both outcomes at rate 1 (held=%d escaped=%d)", held, escaped)
	}
	// Single-bit flips always dirty per-byte parity; only the ~1/16
	// same-byte double flips can escape.
	if escaped > held {
		t.Fatalf("parity should catch the large majority (held=%d escaped=%d)", held, escaped)
	}
}

func TestStuckBitIsPersistentAndAddressStable(t *testing.T) {
	in := New(Config{Crit: Rates{StuckBit: 0.05}, Seed: 11}, 4)
	// Find an address the hash declares stuck.
	stuck := uint64(0)
	for a := uint64(0); a < 4096; a++ {
		if in.stuckAt(a*64, Crit, 0.05) {
			stuck = a * 64
			break
		}
	}
	if !in.stuckAt(stuck, Crit, 0.05) {
		t.Skip("no stuck address in probe range")
	}
	for i := 0; i < 3; i++ {
		if out := in.CritRead(sim0(i), stuck); out == CritClean {
			t.Fatalf("read %d of a stuck address came back clean", i)
		}
	}
	fresh := New(Config{Crit: Rates{StuckBit: 0.05}, Seed: 11}, 4)
	if !fresh.stuckAt(stuck, Crit, 0.05) {
		t.Fatal("stuck-at decision must be a pure function of (addr, seed)")
	}
}

func TestLineSECDEDAndChipkill(t *testing.T) {
	in := New(Config{Seed: 5, Schedule: []Event{
		{At: 10, Kind: Flip, Target: Line, Channel: 1, Chip: -1},
		{At: 20, Kind: ChipKill, Target: Line, Channel: 2, Chip: 3},
	}}, 4)

	if d, out := in.LineRead(5, 0x40, 1); out != LineClean || d != 0 {
		t.Fatalf("clean read got (%d,%v)", d, out)
	}
	if d, out := in.LineRead(10, 0x40, 1); out != LineCorrected || d != SECDEDLatency {
		t.Fatalf("scripted flip: got (%d,%v), want (%d, corrected)", d, out, SECDEDLatency)
	}
	if _, out := in.LineRead(11, 0x40, 1); out != LineClean {
		t.Fatal("line flip is one-shot")
	}

	// Chip 3 of channel 2 dies at cycle 20; every later read on that
	// channel reconstructs, other channels stay clean.
	if d, out := in.LineRead(25, 0x80, 2); out != LineReconstructed || d != ReconstructLatency {
		t.Fatalf("killed channel: got (%d,%v), want (%d, reconstructed)", d, out, ReconstructLatency)
	}
	if _, out := in.LineRead(26, 0xc0, 2); out != LineReconstructed {
		t.Fatal("chip kill is permanent")
	}
	if _, out := in.LineRead(27, 0x100, 0); out != LineClean {
		t.Fatal("chip kill must not leak to other channels")
	}
	c := in.Counts()
	if c.Corrected != 1 || c.Reconstructed != 2 || c.ChipKills != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestCritDIMMDeath(t *testing.T) {
	in := New(Config{Schedule: []Event{
		{At: 1000, Kind: DIMMDead, Target: Crit, Channel: -1, Chip: -1},
	}}, 4)
	if in.CritDead(999) {
		t.Fatal("dead before the scripted cycle")
	}
	if !in.CritDead(1000) {
		t.Fatal("not dead at the scripted cycle")
	}
	if out := in.CritRead(1001, 0x40); out != CritClean {
		t.Fatalf("reads of a dead DIMM are the degrade path's problem, got %v", out)
	}

	// Stochastic version: rate 1 kills on the first read.
	in2 := New(Config{Crit: Rates{ChipKill: 1}, Seed: 2}, 4)
	if out := in2.CritRead(1, 0x40); out != CritHeld {
		t.Fatalf("the killing read is held, got %v", out)
	}
	if !in2.CritDead(2) {
		t.Fatal("stochastic chip-kill must latch the DIMM dead")
	}
}

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{
		Crit: Rates{TransientBit: 0.2, StuckBit: 0.01},
		Line: Rates{TransientBit: 0.2, ChipKill: 0.001},
		Seed: 42,
		Schedule: []Event{
			{At: 100, Kind: Flip, Target: Crit, Channel: -1, Chip: -1},
			{At: 200, Kind: ChipKill, Target: Line, Channel: 0, Chip: 1},
		},
	}
	run := func() ([]CritOutcome, []LineOutcome, Counts) {
		in := New(cfg, 4)
		var co []CritOutcome
		var lo []LineOutcome
		for i := 0; i < 500; i++ {
			co = append(co, in.CritRead(sim0(i), uint64(i)*64))
			d, o := in.LineRead(sim0(i), uint64(i)*64, i%4)
			_ = d
			lo = append(lo, o)
		}
		return co, lo, in.Counts()
	}
	c1, l1, n1 := run()
	c2, l2, n2 := run()
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(l1, l2) || n1 != n2 {
		t.Fatal("identical configs must replay identical fault streams")
	}
}

func TestKeyDistinguishesAndMatches(t *testing.T) {
	a := Config{Crit: Rates{TransientBit: 0.1}, Seed: 1,
		Schedule: []Event{{At: 10, Kind: Flip, Target: Crit, Channel: -1, Chip: -1}}}
	b := a
	b.Schedule = append([]Event(nil), a.Schedule...)
	if a.Key() != b.Key() {
		t.Fatal("equal configs must produce equal keys")
	}
	c := a
	c.Schedule = []Event{{At: 11, Kind: Flip, Target: Crit, Channel: -1, Chip: -1}}
	if a.Key() == c.Key() {
		t.Fatal("different schedules must produce different keys")
	}
	d := a
	d.Seed = 2
	if a.Key() == d.Key() {
		t.Fatal("different seeds must produce different keys")
	}
}

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"crit.bit=0.001",
		"crit.bit=1e-4; line.bit=1e-4; seed=7",
		"crit.stuck=1e-6; crit.chipkill=1e-9; line.stuck=2e-6; line.chipkill=1e-8",
		"@1000 flip crit",
		"@1000 flip line 2; @2000 chipkill line 2 5; @3000 dead crit",
		"line.bit=0.5; seed=3; @10 flip crit; @20 chipkill line 0 0",
	}
	for _, s := range specs {
		c, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		c2, err := Parse(c.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", c.String(), err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("round trip of %q: %+v != %+v", s, c, c2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"bogus=1",
		"crit.bit=nope",
		"crit.bit=2",  // rate outside [0,1] caught by Validate
		"crit.bit=-1", // ditto
		"seed=abc",
		"@x flip crit",
		"@10 zap crit",
		"@10 flip nowhere",
		"@10 flip line",          // missing channel
		"@10 chipkill line 0",    // missing chip
		"@10 dead line 0",        // dead is crit-only
		"@10 flip crit extra",    // stray argument
		"@10 chipkill line 0 99", // chip out of range
		"justtext",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

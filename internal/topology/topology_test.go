package topology

import (
	"strings"
	"testing"

	"hetsim/internal/dram"
)

func TestParseStringRoundTrip(t *testing.T) {
	cases := []string{
		"unified:ddr3x4",
		"unified:rldram3x4",
		"crit:rldram3x4+line:lpddr2x4",
		"crit:rldram3x4:private+line:lpddr2x4",
		"crit:rldram3x1:wide+line:lpddr2x4",
		"crit:ddr3x4+line:ddr3x4",
		"crit:hmc-fastx4+line:hmc-lpx4",
		"crit:rldram3x2+line:ddr3x8",
		"cache-tier:rldram3x1:cap=64+far-tier:lpddr2x4",
		"cache-tier:rldram3x2:cap=128+far-tier:ddr3x4",
		"hot-tier:rldram3x1+far-tier:lpddr2x3",
	}
	for _, text := range cases {
		spec, err := Parse(text)
		if err != nil {
			t.Errorf("Parse(%q): %v", text, err)
			continue
		}
		if got := spec.String(); got != text {
			t.Errorf("Parse(%q).String() = %q", text, got)
		}
		if got := spec.Canonical(); got != text {
			t.Errorf("Parse(%q).Canonical() = %q (cases are written canonically)", text, got)
		}
		// Canonical is a fixed point: parsing it reproduces it.
		again, err := Parse(spec.Canonical())
		if err != nil {
			t.Errorf("Parse(Canonical(%q)): %v", text, err)
		} else if again.Canonical() != spec.Canonical() {
			t.Errorf("Canonical not a fixed point for %q: %q", text, again.Canonical())
		}
	}
}

func TestCanonicalNormalizes(t *testing.T) {
	// Group order and explicit role-default wirings collapse.
	for in, want := range map[string]string{
		"line:lpddr2x4+crit:rldram3x4":                  "crit:rldram3x4+line:lpddr2x4",
		"crit:rldram3x4:shared+line:lpddr2x4":           "crit:rldram3x4+line:lpddr2x4",
		"line:lpddr2x4:private+crit:rldram3x4":          "crit:rldram3x4+line:lpddr2x4",
		"far-tier:lpddr2x4+cache-tier:rldram3x1:cap=64": "cache-tier:rldram3x1:cap=64+far-tier:lpddr2x4",
		"far-tier:lpddr2x3+hot-tier:rldram3x1":          "hot-tier:rldram3x1+far-tier:lpddr2x3",
		"CRIT:RLDRAM3x4+Line:LPDDR2x4":                  "crit:rldram3x4+line:lpddr2x4",
	} {
		spec, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if got := spec.Canonical(); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"":                "empty",
		"crit:rldram3x1":  "exactly crit + line",
		"line:lpddr2x4":   "exactly crit + line",
		"unified:ddr3x0":  "count must be 1..8",
		"unified:ddr3x9":  "count must be 1..8",
		"unified:ddr3x-1": "count must be 1..8",
		"unified:ddr3x99999999999999999999999999": "bad count",
		"unified:ddr3":                                                     "kindxCOUNT",
		"unified:x4":                                                       "kindxCOUNT",
		"ddr3x4":                                                           "want role:kindxCOUNT",
		"unified:ddr5x4":                                                   "unknown device kind",
		"warp:ddr3x4":                                                      "unknown role",
		"unified:ddr3x4+unified:ddr3x4":                                    "duplicate role",
		"crit:rldram3x4+crit:ddr3x4":                                       "duplicate role",
		"unified:ddr3x4+line:lpddr2x4":                                     "unified cannot combine",
		"crit:rldram3x4+far-tier:lpddr2x4":                                 "exactly crit + line",
		"cache-tier:rldram3x1:cap=64":                                      "exactly cache-tier + far-tier",
		"crit:rldram3x3+line:lpddr2x4":                                     "divisor",
		"crit:rldram3x8+line:lpddr2x4":                                     "divisor",
		"crit:rldram3x4:wide+line:lpddr2x4":                                "single channel",
		"line:lpddr2x4:wide+crit:rldram3x1":                                "crit-only",
		"crit:rldram3x4:shared:private+line:lpddr2x4":                      "conflicting bus",
		"crit:rldram3x4+line:lpddr2x4:shared":                              "only the crit command bus",
		"crit:rldram3x4:cap=64+line:lpddr2x4":                              "cache-tier attribute",
		"cache-tier:rldram3x1+far-tier:lpddr2x4":                           "requires cap=",
		"cache-tier:rldram3x1:cap=0+far-tier:lpddr2x4":                     "requires cap=",
		"cache-tier:rldram3x1:cap=9999+far-tier:lpddr2x4":                  "out of range",
		"cache-tier:rldram3x1:cap=oops+far-tier:lpddr2x4":                  "bad capacity",
		"unified:ddr3x4:sparkly":                                           "unknown attribute",
		"hot-tier:rldram3x1":                                               "exactly hot-tier + far-tier",
		"hot-tier:rldram3x1+cache-tier:rldram3x1:cap=64":                   "exactly hot-tier + far-tier",
		"hot-tier:rldram3x1+crit:rldram3x1":                                "exactly crit + line",
		"hot-tier:rldram3x1+line:lpddr2x3":                                 "exactly crit + line",
		"hot-tier:rldram3x1:cap=64+far-tier:lpddr2x3":                      "cache-tier attribute",
		"hot-tier:rldram3x1:wide+far-tier:lpddr2x3":                        "crit-only",
		"hot-tier:rldram3x1+far-tier:lpddr2x3+cache-tier:rldram3x1:cap=64": "exactly hot-tier + far-tier",
	}
	for in, wantSub := range cases {
		_, err := Parse(in)
		if err == nil {
			t.Errorf("Parse(%q) accepted an invalid spec", in)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Parse(%q) error %q does not mention %q", in, err, wantSub)
		}
	}
}

func TestShapeAndGroup(t *testing.T) {
	cwf := CWF(dram.RLDRAM3, 4, dram.LPDDR2, 4, BusDefault, false)
	if cwf.Shape() != ShapeCWF {
		t.Errorf("CWF shape = %v", cwf.Shape())
	}
	if g, ok := cwf.Group(RoleCrit); !ok || g.Kind != dram.RLDRAM3 || g.Bus != BusShared {
		t.Errorf("CWF crit group = %+v, %v", g, ok)
	}
	if u := Unified(dram.DDR3, 4); u.Shape() != ShapeUnified {
		t.Errorf("Unified shape = %v", u.Shape())
	}
	dc := DRAMCache(dram.RLDRAM3, 1, 64, dram.LPDDR2, 4)
	if dc.Shape() != ShapeCache {
		t.Errorf("DRAMCache shape = %v", dc.Shape())
	}
	if err := dc.Validate(); err != nil {
		t.Errorf("DRAMCache: %v", err)
	}
	if _, ok := dc.Group(RoleCrit); ok {
		t.Error("DRAMCache reports a crit group")
	}
	pp := PagePlaced(dram.RLDRAM3, 1, dram.LPDDR2, 3)
	if pp.Shape() != ShapePage {
		t.Errorf("PagePlaced shape = %v", pp.Shape())
	}
	if err := pp.Validate(); err != nil {
		t.Errorf("PagePlaced: %v", err)
	}
}

func TestBuildersCanonical(t *testing.T) {
	for spec, want := range map[string]string{
		Unified(dram.LPDDR2, 4).String():                                 "unified:lpddr2x4",
		CWF(dram.RLDRAM3, 4, dram.LPDDR2, 4, BusDefault, false).String(): "crit:rldram3x4+line:lpddr2x4",
		CWF(dram.RLDRAM3, 4, dram.LPDDR2, 4, BusPrivate, false).String(): "crit:rldram3x4:private+line:lpddr2x4",
		CWF(dram.RLDRAM3, 1, dram.LPDDR2, 4, BusDefault, true).String():  "crit:rldram3x1:wide+line:lpddr2x4",
		CWF(dram.HMCFast, 4, dram.HMCLP, 4, BusDefault, false).String():  "crit:hmc-fastx4+line:hmc-lpx4",
		DRAMCache(dram.RLDRAM3, 1, 64, dram.LPDDR2, 4).String():          "cache-tier:rldram3x1:cap=64+far-tier:lpddr2x4",
		PagePlaced(dram.RLDRAM3, 1, dram.LPDDR2, 3).String():             "hot-tier:rldram3x1+far-tier:lpddr2x3",
	} {
		if spec != want {
			t.Errorf("builder produced %q, want %q", spec, want)
		}
	}
}

// FuzzTopologyParse checks that any input either errors or yields a
// validated spec whose canonical form round-trips exactly.
func FuzzTopologyParse(f *testing.F) {
	seeds := []string{
		"unified:ddr3x4",
		"crit:rldram3x4+line:lpddr2x4",
		"crit:rldram3x1:wide+line:lpddr2x4",
		"crit:hmc-fastx4+line:hmc-lpx4",
		"cache-tier:rldram3x1:cap=64+far-tier:lpddr2x4",
		"hot-tier:rldram3x1+far-tier:lpddr2x3",
		"crit:rldram3x4:shared:private",
		"line:lpddr2x4+crit:rldram3x4",
		"unified:ddr3x999999999999999999",
		"warp:foox4", "x", "+", "::::", "crit:rldram3x4+",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := Parse(text)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("Parse(%q) returned an invalid spec: %v", text, err)
		}
		canon := spec.Canonical()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Canonical(%q) = %q does not re-parse: %v", text, canon, err)
		}
		if again.Canonical() != canon {
			t.Fatalf("Canonical not stable: %q -> %q -> %q", text, canon, again.Canonical())
		}
		// String() of the parsed spec must also re-parse to the same
		// canonical organization.
		back, err := Parse(spec.String())
		if err != nil || back.Canonical() != canon {
			t.Fatalf("String round-trip broke: %q -> %q (err %v)", text, spec.String(), err)
		}
	})
}

// Package topology describes memory organizations declaratively: an
// ordered set of channel groups, each a device family × channel count ×
// role × bus wiring. The compact text form
//
//	crit:rldram3x1:wide+line:lpddr2x4
//
// is what -topology flags accept and what ConfigKey embeds, so a
// topology is simultaneously a CLI value, a validated build plan for
// core.NewSystem, and a canonical cache-key component. The package is
// purely structural — it knows which shapes are expressible (unified,
// crit/line split, cache-tier/far-tier, hot-tier/far-tier), not which
// device kinds a given role supports; that policy lives with the system
// builder.
package topology

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hetsim/internal/dram"
)

// Role names the job a channel group performs in the hierarchy.
type Role int

// The modelled roles. Unified is a homogeneous main memory; Crit/Line
// form the paper's critical-word-first split (§4.2); CacheTier/FarTier
// form a DRAM-cache organization (a fast tier probed first, fronting a
// slow far memory); HotTier/FarTier form the §7.1 page-placement
// comparison (profiled hot pages on a fast full-line tier, every other
// page on the far tier).
const (
	RoleUnified Role = iota
	RoleCrit
	RoleLine
	RoleCacheTier
	RoleFarTier
	RoleHotTier
)

var roleTokens = [...]string{
	RoleUnified:   "unified",
	RoleCrit:      "crit",
	RoleLine:      "line",
	RoleCacheTier: "cache-tier",
	RoleFarTier:   "far-tier",
	RoleHotTier:   "hot-tier",
}

// String returns the role token used in topology strings.
func (r Role) String() string {
	if int(r) < len(roleTokens) {
		return roleTokens[r]
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// parseRole resolves a role token (case-insensitive, no aliases).
func parseRole(s string) (Role, error) {
	for r, tok := range roleTokens {
		if strings.EqualFold(s, tok) {
			return Role(r), nil
		}
	}
	return 0, fmt.Errorf("topology: unknown role %q (crit|line|unified|cache-tier|far-tier|hot-tier)", s)
}

// BusWiring selects how a group's channels share command wiring. Only
// the crit role models an aggregated bus: the paper's x9 sub-channels
// ride one double-pumped command bus (BusShared, §4.2.4) unless the
// private-bus ablation gives each its own (BusPrivate). Every other
// role always has per-channel wiring.
type BusWiring int

// Bus wirings. BusDefault resolves to the role's default — shared for
// crit, private otherwise — during normalization.
const (
	BusDefault BusWiring = iota
	BusShared
	BusPrivate
)

// ChannelGroup is one homogeneous set of channels.
type ChannelGroup struct {
	Kind  dram.Kind
	Count int
	Role  Role
	Bus   BusWiring
	// Wide marks the wide-rank crit ablation (§6.3): one x36 rank
	// bursting a full word per access instead of four x9 sub-channels.
	Wide bool
	// CapacityMB sizes a cache tier (tags cover CapacityMB per
	// channel). Zero everywhere else.
	CapacityMB int
}

// defaultBus is the wiring a role gets when the spec does not say.
func defaultBus(r Role) BusWiring {
	if r == RoleCrit {
		return BusShared
	}
	return BusPrivate
}

// Spec is a whole memory organization.
type Spec struct {
	Groups []ChannelGroup
}

// Shape classifies the organizations the system builder knows how to
// construct.
type Shape int

// The expressible shapes.
const (
	ShapeUnified Shape = iota // one unified group
	ShapeCWF                  // crit + line (the paper's split)
	ShapeCache                // cache-tier + far-tier
	ShapePage                 // hot-tier + far-tier (§7.1 page placement)
)

// Shape classifies a validated spec. Calling it on an invalid spec
// returns ShapeUnified arbitrarily; Validate first.
func (s Spec) Shape() Shape {
	if _, ok := s.Group(RoleCrit); ok {
		return ShapeCWF
	}
	if _, ok := s.Group(RoleCacheTier); ok {
		return ShapeCache
	}
	if _, ok := s.Group(RoleHotTier); ok {
		return ShapePage
	}
	return ShapeUnified
}

// Group returns the group with the given role, if present.
func (s Spec) Group(r Role) (ChannelGroup, bool) {
	for _, g := range s.Groups {
		if g.Role == r {
			return g, true
		}
	}
	return ChannelGroup{}, false
}

// roleRank orders groups canonically: crit before line, cache or hot
// before far, unified alone.
func roleRank(r Role) int {
	switch r {
	case RoleCrit:
		return 0
	case RoleLine:
		return 1
	case RoleUnified:
		return 2
	case RoleCacheTier, RoleHotTier:
		return 3
	default: // RoleFarTier
		return 4
	}
}

// Normalized returns a copy with BusDefault resolved to each role's
// default wiring and groups sorted into canonical role order. The
// result String()s to the Canonical form.
func (s Spec) Normalized() Spec {
	out := Spec{Groups: make([]ChannelGroup, len(s.Groups))}
	copy(out.Groups, s.Groups)
	for i := range out.Groups {
		if out.Groups[i].Bus == BusDefault {
			out.Groups[i].Bus = defaultBus(out.Groups[i].Role)
		}
	}
	sort.SliceStable(out.Groups, func(i, j int) bool {
		return roleRank(out.Groups[i].Role) < roleRank(out.Groups[j].Role)
	})
	return out
}

// Validate rejects specs the system builder cannot construct. The rules
// are deliberately strict — a spec that validates always builds.
func (s Spec) Validate() error {
	if len(s.Groups) == 0 {
		return fmt.Errorf("topology: empty spec")
	}
	seen := map[Role]bool{}
	for _, g := range s.Groups {
		if g.Count < 1 || g.Count > 8 {
			return fmt.Errorf("topology: group %s:%sx%d: count must be 1..8",
				g.Role, dram.KindToken(g.Kind), g.Count)
		}
		if seen[g.Role] {
			return fmt.Errorf("topology: duplicate role %s", g.Role)
		}
		seen[g.Role] = true
		if g.Wide {
			if g.Role != RoleCrit {
				return fmt.Errorf("topology: wide is a crit-only attribute (got %s)", g.Role)
			}
			if g.Count != 1 {
				return fmt.Errorf("topology: a wide crit rank is a single channel (got %d)", g.Count)
			}
		}
		if g.Bus == BusShared && g.Role != RoleCrit {
			return fmt.Errorf("topology: only the crit command bus can be shared (got %s)", g.Role)
		}
		if g.CapacityMB != 0 {
			if g.Role != RoleCacheTier {
				return fmt.Errorf("topology: cap= is a cache-tier attribute (got %s)", g.Role)
			}
			if g.CapacityMB < 1 || g.CapacityMB > 4096 {
				return fmt.Errorf("topology: cache capacity %d MB out of range 1..4096", g.CapacityMB)
			}
		}
	}
	// Shape: exactly one of the four known organizations.
	switch {
	case seen[RoleUnified]:
		if len(s.Groups) != 1 {
			return fmt.Errorf("topology: unified cannot combine with other roles")
		}
	case seen[RoleCrit] || seen[RoleLine]:
		if !seen[RoleCrit] || !seen[RoleLine] || len(s.Groups) != 2 {
			return fmt.Errorf("topology: a split organization is exactly crit + line")
		}
		crit, _ := s.Group(RoleCrit)
		line, _ := s.Group(RoleLine)
		if crit.Count > line.Count || line.Count%crit.Count != 0 {
			return fmt.Errorf("topology: %d crit channels cannot interleave %d line channels (need a divisor)",
				crit.Count, line.Count)
		}
	case seen[RoleHotTier]:
		if !seen[RoleFarTier] || len(s.Groups) != 2 {
			return fmt.Errorf("topology: a page-placed organization is exactly hot-tier + far-tier")
		}
	case seen[RoleCacheTier] || seen[RoleFarTier]:
		if !seen[RoleCacheTier] || !seen[RoleFarTier] || len(s.Groups) != 2 {
			return fmt.Errorf("topology: a cache organization is exactly cache-tier + far-tier")
		}
		cache, _ := s.Group(RoleCacheTier)
		if cache.CapacityMB == 0 {
			return fmt.Errorf("topology: cache-tier requires cap=<MB>")
		}
	}
	return nil
}

// String renders the spec in the compact flag syntax, preserving group
// order. Attributes appear in a fixed order (bus, wide, cap) and the
// role-default bus wiring is omitted, so String of a Normalized spec is
// minimal.
func (s Spec) String() string {
	var b strings.Builder
	for i, g := range s.Groups {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%s:%sx%d", g.Role, dram.KindToken(g.Kind), g.Count)
		if g.Bus != BusDefault && g.Bus != defaultBus(g.Role) {
			if g.Bus == BusShared {
				b.WriteString(":shared")
			} else {
				b.WriteString(":private")
			}
		}
		if g.Wide {
			b.WriteString(":wide")
		}
		if g.CapacityMB != 0 {
			fmt.Fprintf(&b, ":cap=%d", g.CapacityMB)
		}
	}
	return b.String()
}

// Canonical returns the normalized text form: default wirings elided,
// groups in role order. Two specs describing the same organization have
// equal Canonical strings, which is what ConfigKey embeds.
func (s Spec) Canonical() string { return s.Normalized().String() }

// Parse reads the compact syntax: '+'-separated groups, each
// role:kindxCOUNT with optional :shared|:private|:wide|:cap=MB
// attributes. The result is validated.
func Parse(text string) (Spec, error) {
	if text == "" {
		return Spec{}, fmt.Errorf("topology: empty spec")
	}
	var s Spec
	for _, part := range strings.Split(text, "+") {
		g, err := parseGroup(part)
		if err != nil {
			return Spec{}, err
		}
		s.Groups = append(s.Groups, g)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// parseGroup reads one role:kindxCOUNT[:attr]... term.
func parseGroup(part string) (ChannelGroup, error) {
	fields := strings.Split(part, ":")
	if len(fields) < 2 {
		return ChannelGroup{}, fmt.Errorf("topology: group %q: want role:kindxCOUNT", part)
	}
	role, err := parseRole(fields[0])
	if err != nil {
		return ChannelGroup{}, err
	}
	// The count splits at the last 'x' so kind tokens containing 'x'
	// stay unambiguous; dram kinds are the vocabulary check.
	kc := fields[1]
	i := strings.LastIndexByte(kc, 'x')
	if i <= 0 || i == len(kc)-1 {
		return ChannelGroup{}, fmt.Errorf("topology: group %q: want kindxCOUNT, e.g. rldram3x1", part)
	}
	kind, err := dram.ParseKind(kc[:i])
	if err != nil {
		return ChannelGroup{}, err
	}
	count, err := strconv.Atoi(kc[i+1:])
	if err != nil {
		return ChannelGroup{}, fmt.Errorf("topology: group %q: bad count %q", part, kc[i+1:])
	}
	g := ChannelGroup{Kind: kind, Count: count, Role: role}
	for _, attr := range fields[2:] {
		switch {
		case strings.EqualFold(attr, "shared"):
			if g.Bus != BusDefault {
				return ChannelGroup{}, fmt.Errorf("topology: group %q: conflicting bus attributes", part)
			}
			g.Bus = BusShared
		case strings.EqualFold(attr, "private"):
			if g.Bus != BusDefault {
				return ChannelGroup{}, fmt.Errorf("topology: group %q: conflicting bus attributes", part)
			}
			g.Bus = BusPrivate
		case strings.EqualFold(attr, "wide"):
			g.Wide = true
		case len(attr) > 4 && strings.EqualFold(attr[:4], "cap="):
			mb, err := strconv.Atoi(attr[4:])
			if err != nil {
				return ChannelGroup{}, fmt.Errorf("topology: group %q: bad capacity %q", part, attr[4:])
			}
			g.CapacityMB = mb
		default:
			return ChannelGroup{}, fmt.Errorf("topology: group %q: unknown attribute %q (shared|private|wide|cap=MB)", part, attr)
		}
	}
	return g, nil
}

// Unified builds a homogeneous organization: n channels of one family.
func Unified(kind dram.Kind, n int) Spec {
	return Spec{Groups: []ChannelGroup{{Kind: kind, Count: n, Role: RoleUnified}}}.Normalized()
}

// CWF builds the paper's split organization: critN critical-word
// channels of critKind in front of lineN full-line channels of
// lineKind. bus selects the crit command wiring (BusDefault = shared);
// wide replaces the sub-channels with one wide rank.
func CWF(critKind dram.Kind, critN int, lineKind dram.Kind, lineN int, bus BusWiring, wide bool) Spec {
	return Spec{Groups: []ChannelGroup{
		{Kind: critKind, Count: critN, Role: RoleCrit, Bus: bus, Wide: wide},
		{Kind: lineKind, Count: lineN, Role: RoleLine},
	}}.Normalized()
}

// PagePlaced builds the §7.1 page-placement organization: hotN
// full-line channels of hotKind holding the profiled hot pages, in front
// of farN channels of farKind holding the rest.
func PagePlaced(hotKind dram.Kind, hotN int, farKind dram.Kind, farN int) Spec {
	return Spec{Groups: []ChannelGroup{
		{Kind: hotKind, Count: hotN, Role: RoleHotTier},
		{Kind: farKind, Count: farN, Role: RoleFarTier},
	}}.Normalized()
}

// DRAMCache builds a two-tier organization: cacheN channels of
// cacheKind holding capMB MB of direct-mapped line cache each, fronting
// farN channels of farKind.
func DRAMCache(cacheKind dram.Kind, cacheN, capMB int, farKind dram.Kind, farN int) Spec {
	return Spec{Groups: []ChannelGroup{
		{Kind: cacheKind, Count: cacheN, Role: RoleCacheTier, CapacityMB: capMB},
		{Kind: farKind, Count: farN, Role: RoleFarTier},
	}}.Normalized()
}

package grid

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"hetsim/internal/core"
	"hetsim/internal/faults"
	"hetsim/internal/sim"
	"hetsim/internal/store"
	"hetsim/internal/workload"
)

// Sweep is a sweep specification: one configuration × a benchmark list
// × an optional parameter axis. It is sweepd's HTTP request body and
// durable checkpoint record — a job's identity is the hash of its
// normalized spec, so resubmitting the same sweep is idempotent — and
// every front end expands its grid through Cells.
type Sweep struct {
	Config     string   `json:"config"`
	Benchmarks []string `json:"benchmarks"`
	// Topology, when set, overrides the config's memory organization: a
	// named topology (TopologyNames) or a raw spec string.
	Topology      string   `json:"topology,omitempty"`
	Param         string   `json:"param,omitempty"`
	Values        []string `json:"values,omitempty"`
	Scale         string   `json:"scale,omitempty"`
	Cores         int      `json:"cores,omitempty"`
	Pair          bool     `json:"pair,omitempty"`
	EpochInterval int64    `json:"epoch_interval,omitempty"`
	// Faults is a fault environment applied to every cell before the
	// swept parameter (cmd/sweep's -faults). It is not part of the wire
	// form, so it never changes a job ID.
	Faults faults.Config `json:"-"`
}

// Normalize fills defaults and canonicalizes free-form fields so that
// equivalent submissions hash to the same job ID.
func (s Sweep) Normalize() Sweep {
	s.Config = strings.ToLower(strings.TrimSpace(s.Config))
	s.Topology = strings.ToLower(strings.TrimSpace(s.Topology))
	s.Param = strings.ToLower(strings.TrimSpace(s.Param))
	s.Scale = strings.ToLower(strings.TrimSpace(s.Scale))
	if s.Scale == "" {
		s.Scale = "test"
	}
	if s.Cores == 0 {
		s.Cores = 8
	}
	for i, b := range s.Benchmarks {
		s.Benchmarks[i] = strings.TrimSpace(b)
	}
	for i, v := range s.Values {
		s.Values[i] = strings.TrimSpace(v)
	}
	return s
}

// ID is the content address of the normalized spec. JSON field order
// is fixed by the struct, so the encoding is deterministic.
func (s Sweep) ID() string {
	b, _ := json.Marshal(s)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:12]
}

// Cells validates the normalized spec and expands its grid value-major,
// then benchmark. It is a pure function of the spec, so a resumed
// sweepd rebuilds the identical grid — and the identical store keys —
// the dead server was working through. Every cell's config passes
// SystemConfig.Validate, so an accepted spec can always be simulated.
func (s Sweep) Cells() ([]Cell, error) {
	s = s.Normalize()
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("grid: no benchmarks")
	}
	for _, b := range s.Benchmarks {
		if _, err := workload.Get(b); err != nil {
			return nil, err
		}
	}
	if (s.Param == "") != (len(s.Values) == 0) {
		return nil, fmt.Errorf("grid: param and values must be given together")
	}
	if s.EpochInterval < 0 {
		return nil, fmt.Errorf("grid: negative epoch interval %d", s.EpochInterval)
	}
	scale, err := Scale(s.Scale)
	if err != nil {
		return nil, err
	}
	scale.EpochInterval = sim.Cycle(s.EpochInterval)
	values := s.Values
	if s.Param == "" {
		values = []string{""} // single column: the unmodified config
	}
	cells := make([]Cell, 0, len(values)*len(s.Benchmarks))
	for _, v := range values {
		cfg, err := Config(s.Config, s.Cores)
		if err != nil {
			return nil, err
		}
		if s.Topology != "" {
			if err := ApplyTopology(&cfg, s.Topology); err != nil {
				return nil, err
			}
		}
		cfg.Faults = s.Faults
		runScale := scale
		if s.Param != "" {
			if err := Apply(&cfg, &runScale, s.Param, v); err != nil {
				return nil, err
			}
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("grid: %s: %w", cfg.Name, err)
		}
		for _, b := range s.Benchmarks {
			cells = append(cells, Cell{Cfg: cfg, Bench: b, Value: v, Scale: runScale, Pair: s.Pair})
		}
	}
	return cells, nil
}

// ErrCanceled reports a run that Cfg.Cancel truncated. The partial
// Results are discarded: a canceled run is an error, never a shorter
// answer.
var ErrCanceled = errors.New("grid: run canceled")

// Cell is one grid point: a benchmark under a resolved configuration
// and run scale. Value is the swept parameter's value ("" when the
// spec has no parameter axis); Pair selects core.RunPair, whose
// stand-alone references fill the throughput columns.
type Cell struct {
	Cfg   core.SystemConfig
	Bench string
	Value string
	Scale core.RunScale
	Pair  bool
}

// Key is the cell's durable-store address.
func (c Cell) Key() store.RunKey {
	return store.RunKey{Cfg: c.Cfg.Key(), Bench: c.Bench, Scale: c.Scale, Pair: c.Pair}
}

// Prewarms lists the prewarm checkpoints the cell's systems restore
// (core.PrewarmKeys); none for an unknown benchmark, which fails in Run.
func (c Cell) Prewarms() []core.CheckpointKey {
	spec, err := workload.Get(c.Bench)
	if err != nil {
		return nil
	}
	return core.PrewarmKeys(c.Cfg, spec, c.Scale, c.Pair)
}

// Run simulates the cell: the shared run plus its stand-alone
// references when Pair is set, the lone system otherwise. Each system
// restores its prewarm checkpoint from cps (nil: each builds its own).
// Cfg.Cancel is latched: only a run the simulator actually truncated
// returns ErrCanceled — a run that finished just before its deadline
// is a result, not an error.
func (c Cell) Run(cps *core.Checkpoints) (core.Results, error) {
	spec, err := workload.Get(c.Bench)
	if err != nil {
		return core.Results{}, err
	}
	cfg := c.Cfg
	// The simulation polls the hook on this goroutine only (RunPair's
	// three systems run one after another), so a plain bool latches.
	tripped := false
	if cancel := cfg.Cancel; cancel != nil {
		cfg.Cancel = func() bool {
			if cancel() {
				tripped = true
				return true
			}
			return false
		}
	}
	var res core.Results
	if c.Pair {
		res, err = core.RunPair(cfg, spec, c.Scale, cps)
	} else {
		var sys *core.System
		if sys, err = core.NewSystem(cfg, spec); err == nil {
			res = sys.RunWith(c.Scale, cps)
		}
	}
	if err != nil {
		return core.Results{}, err
	}
	if tripped {
		return core.Results{}, ErrCanceled
	}
	return res, nil
}

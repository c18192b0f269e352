package core_test

import (
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/grid"
	"hetsim/internal/store"
)

// TestRunKeyHashGolden pins the durable-store address of every named
// grid config at TestScale, for single and pair runs, so a change to a
// preset's spelling that would move its cache entries fails here.
//
// hmc-mix is an alias of hmc: it builds HMCHetero and shares its
// address. Its golden lines record the address of the retired HMC-mix
// config and are not checked.
func TestRunKeyHashGolden(t *testing.T) {
	aliasOf := map[string]string{"hmc-mix": "hmc"}
	got := map[string]string{}
	want := core.GoldenSection(t, "runkey", got)
	for _, name := range grid.ConfigNames() {
		cfg, err := grid.Config(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"single", "pair"} {
			k := store.RunKey{Cfg: cfg.Key(), Bench: "libquantum", Scale: core.TestScale(), Pair: mode == "pair"}
			if target, ok := aliasOf[name]; ok {
				core.CheckDigest(t, want, target+"/"+mode, k.Hash())
				continue
			}
			got[name+"/"+mode] = k.Hash()
			core.CheckDigest(t, want, name+"/"+mode, k.Hash())
		}
	}
}

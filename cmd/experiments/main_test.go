package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// quickArgs runs every experiment, the opt-in ones included, at quick
// scale on two benchmarks and two cores: about a second of simulation.
var quickArgs = []string{
	"-scale", "quick", "-benchmarks", "libquantum,mcf", "-cores", "2", "-j", "2",
	"-only", "table1,table2,workloads,fig1a,fig1b,fig2,fig3,fig4,fig6,fig7,fig8,fig9,fig10,fig11," +
		"random,noprefetch,reusegap,pageplacement,cmdbus,subrank,malladi,policies,mapping,rob,hmc,topologies,faults",
}

// TestExperimentsGolden pins the whole stdout of a run over every
// experiment byte for byte. Regenerate the file, after a deliberate
// change to what the experiments print, with
//
//	go run ./cmd/experiments -scale quick -benchmarks libquantum,mcf -cores 2 -j 2 \
//	    -only <the names in quickArgs> > cmd/experiments/testdata/quick.golden
func TestExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run(quickArgs, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("stdout differs from testdata/quick.golden at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stdout has %d lines, testdata/quick.golden %d", len(gl), len(wl))
	}
}

// TestExperimentsBadFlags: every bad flag value exits 2 before anything
// reaches stdout, and an unknown -only name lists the known ones. Each
// case's flags follow small defaults and override them, so a check that
// stops firing costs a quick run, not a bench-scale one.
func TestExperimentsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"unknown experiment", []string{"-only", "fig6,fig99"}, "known: table1,table2,workloads,fig1a"},
		{"topology without its study", []string{"-topology", "dram-cache", "-only", "fig8"}, `"topologies"`},
		{"bad topology", []string{"-topology", "warp:9"}, ""},
		{"negative cores", []string{"-cores", "-1", "-only", "fig6"}, "core count"},
		{"unknown benchmark", []string{"-benchmarks", "libquantum,nosuch", "-only", "fig6"}, "nosuch"},
		{"unknown scale", []string{"-scale", "huge"}, "huge"},
		{"epoch file without interval", []string{"-epoch-csv", "x.csv"}, "-epoch-interval"},
		{"cache cap without dir", []string{"-cache-max-bytes", "1000"}, "-cache-dir"},
		{"bad fault spec", []string{"-faults", "crit.bit=2"}, ""},
		{"undefined flag", []string{"-warp"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			args := append([]string{"-scale", "quick", "-benchmarks", "mcf", "-cores", "2"}, tc.args...)
			if code := run(args, &out, &errb); code != 2 {
				t.Errorf("exit %d, want 2 (stderr: %s)", code, errb.String())
			}
			if out.Len() != 0 {
				t.Errorf("printed before failing:\n%s", out.String())
			}
			if !strings.Contains(errb.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", errb.String(), tc.stderr)
			}
		})
	}
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestPaperOutputGolden runs the paper-figure subcommands in-process
// with default flags and compares their stdout byte for byte with the
// recorded output: repro.golden is `make repro` (bench, trace, sweep,
// latency, area in that order), ablate.golden and tune.golden are
// `make ablate` and `make tune`. The simulator is deterministic, so any
// difference is a change to a paper result or to its rendering.
func TestPaperOutputGolden(t *testing.T) {
	for _, g := range []struct {
		golden string
		subs   []string
	}{
		{"repro.golden", []string{"bench", "trace", "sweep", "latency", "area"}},
		{"ablate.golden", []string{"ablate"}},
		{"tune.golden", []string{"tune"}},
	} {
		want, err := os.ReadFile("testdata/" + g.golden)
		if err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		for _, sub := range g.subs {
			var stderr bytes.Buffer
			if code := run([]string{sub}, nil, &stdout, &stderr); code != 0 {
				t.Fatalf("%s: exit %d, stderr:\n%s", sub, code, stderr.String())
			}
		}
		if got := stdout.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s: stdout differs from %s at %s", strings.Join(g.subs, "+"), g.golden, firstDiff(got, want))
		}
	}
}

// firstDiff locates the first differing line of got against want.
func firstDiff(got, want []byte) string {
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("line %d: got %d lines, want %d", min(len(gl), len(wl))+1, len(gl), len(wl))
}

// TestUnknownSubcommand: a word that names no subcommand exits 2 with a
// usage line naming every subcommand, and writes nothing to stdout.
func TestUnknownSubcommand(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"figures"}, nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout = %q, want empty", stdout.String())
	}
	for _, name := range []string{"bench", "trace", "sweep", "latency", "area", "ablate", "tune"} {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("usage %q does not name %s", stderr.String(), name)
		}
	}
}

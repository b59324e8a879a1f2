// Command envelopediff compares the result grid inside a tuning-run
// envelope (critter-tune -json output, or a critter-serve
// /v1/jobs/{id}/result response) byte-for-byte against a committed golden
// grid file (internal/autotune/testdata/*.golden.json). The CI service
// smoke job uses it to prove an end-to-end served job reproduces the same
// grid the golden tests pin.
//
// Usage:
//
//	envelopediff -golden internal/autotune/testdata/envelope_candmc_exhaustive.golden.json result.json
//
// Exits 0 when the grids match, 1 on mismatch (with a first-difference
// report followed by a count of differing values per field path, array
// indices elided), 2 on usage or decode errors — including envelopes with
// unknown future schema versions, which DecodeEnvelope rejects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"critter/internal/autotune"
)

func main() {
	golden := flag.String("golden", "", "committed golden result-grid JSON to compare against")
	flag.Parse()
	if *golden == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: envelopediff -golden grid.golden.json envelope.json")
		os.Exit(2)
	}

	envData, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	env, err := autotune.DecodeEnvelope(envData)
	if err != nil {
		fatal(err)
	}
	if env.Result == nil {
		fatal(fmt.Errorf("envelope %s carries no result grid", flag.Arg(0)))
	}
	// Re-marshal the decoded grid exactly as the golden tests do; float64
	// values survive the JSON round trip bit-for-bit (shortest-round-trip
	// formatting), so equal grids produce equal bytes.
	got, err := json.MarshalIndent(env.Result, "", "  ")
	if err != nil {
		fatal(err)
	}
	got = append(got, '\n')

	want, err := os.ReadFile(*golden)
	if err != nil {
		fatal(err)
	}
	if string(got) == string(want) {
		fmt.Printf("envelopediff: result grid matches %s (%d bytes)\n", *golden, len(want))
		return
	}
	line, context := firstDiff(string(want), string(got))
	fmt.Fprintf(os.Stderr, "envelopediff: result grid diverges from %s at line %d:\n%s\n", *golden, line, context)
	var w, g any
	if json.Unmarshal(want, &w) == nil && json.Unmarshal(got, &g) == nil {
		counts := fieldDiffs(w, g)
		paths := make([]string, 0, len(counts))
		for p := range counts {
			paths = append(paths, p)
		}
		slices.Sort(paths)
		fmt.Fprintln(os.Stderr, "envelopediff: differing values by field path:")
		for _, p := range paths {
			fmt.Fprintf(os.Stderr, "  %7d  %s\n", counts[p], p)
		}
	}
	os.Exit(1)
}

// fieldDiffs counts the differing leaf values of two decoded JSON
// documents per field path, array indices elided
// ("Sweeps[][].Configs[].Full.Wall"), so a changed grid shows at a glance
// which fields moved. A value present on one side only, or of a different
// JSON type on each side, counts once at its path.
func fieldDiffs(want, got any) map[string]int {
	counts := make(map[string]int)
	var walk func(path string, w, g any)
	walk = func(path string, w, g any) {
		switch wv := w.(type) {
		case map[string]any:
			gv, ok := g.(map[string]any)
			if !ok {
				counts[path]++
				return
			}
			keys := make([]string, 0, len(wv)+len(gv))
			for k := range wv {
				keys = append(keys, k)
			}
			for k := range gv {
				if _, dup := wv[k]; !dup {
					keys = append(keys, k)
				}
			}
			for _, k := range keys {
				sub := k
				if path != "" {
					sub = path + "." + k
				}
				walk(sub, wv[k], gv[k])
			}
		case []any:
			gv, ok := g.([]any)
			if !ok {
				counts[path]++
				return
			}
			for i := range max(len(wv), len(gv)) {
				var a, b any
				if i < len(wv) {
					a = wv[i]
				}
				if i < len(gv) {
					b = gv[i]
				}
				walk(path+"[]", a, b)
			}
		default:
			// Leaves are nil, bool, float64 or string — comparable — and
			// a leaf against a container differs by type, never panics.
			if w != g {
				counts[path]++
			}
		}
	}
	walk("", want, got)
	return counts
}

// firstDiff locates the first differing line and renders a want/got pair.
func firstDiff(want, got string) (line int, context string) {
	w, g := splitLines(want), splitLines(got)
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return i + 1, fmt.Sprintf("  golden: %s\n  got:    %s", wl, gl)
		}
	}
	return 0, "  (grids differ only in trailing bytes)"
}

func splitLines(s string) []string {
	return strings.Split(strings.TrimSuffix(s, "\n"), "\n")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "envelopediff: %v\n", err)
	os.Exit(2)
}

package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for mdsim: with MDSIM_ARGS set it
// runs main() on those arguments and exits, so the golden test drives the
// program exactly as a shell would (flag parsing, os.Exit and all).
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MDSIM_ARGS"); ok {
		os.Args = append([]string{"mdsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var wallField = regexp.MustCompile(` wall=\S+`)

// TestGoldenOutput pins what mdsim prints for a lone MDS, a per-partition
// cluster, a global-mining cluster, and a global cluster whose 8-event
// mailboxes overflow behind a 20 ms network (16,345 events shed). The
// simulator runs in virtual time, so every figure — drop counts included —
// repeats exactly; only the wall= field is stripped. testdata/golden.txt was
// written by commit dc4a680, and only its p95 lines were rewritten since:
// when the response histogram moved from 2^k µs to 2^k ns buckets (2.048ms
// became 2.097152ms), and when the p95 began interpolating inside its bucket
// (2.097152ms became 1.968807–1.995693ms). A red test means the simulator's
// behaviour moved, not that the file needs regenerating.
func TestGoldenOutput(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range strings.Split(string(golden), "$ mdsim ")[1:] {
		args, want, _ := strings.Cut(section, "\n")
		t.Run(args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "MDSIM_ARGS="+args)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("mdsim %s: %v\n%s", args, err, stderr.String())
			}
			if got := wallField.ReplaceAllString(string(out), ""); got != want {
				t.Errorf("mdsim %s printed\n%s\nwant\n%s", args, got, want)
			}
		})
	}
}

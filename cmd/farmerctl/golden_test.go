package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for farmerctl: with FARMERCTL_ARGS
// set it runs main() on those arguments, so the golden test reads the
// program's real stdout.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FARMERCTL_ARGS"); ok {
		os.Args = append([]string{"farmerctl"}, strings.Fields(args)...)
		main()
	}
	os.Exit(m.Run())
}

// TestAllExperimentsGolden pins every figure and table farmerctl
// regenerates, at 3 000 records a trace: traces are seeded and the simulator
// runs in virtual time, so the output repeats byte for byte.
// testdata/all_records3000.txt was written by commit dc4a680; a change that
// is not meant to move a figure must leave this test green without touching
// that file.
func TestAllExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all_records3000.txt")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "FARMERCTL_ARGS=-records 3000 all")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("farmerctl -records 3000 all: %v\n%s", err, stderr.String())
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d reads\n%s\nwant\n%s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, want %d", len(gl), len(wl))
	}
}

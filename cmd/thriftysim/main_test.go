package main_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd compiles this command into t.TempDir and returns the binary path.
func buildCmd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "thriftysim")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// Flag-validation failures must exit 2 with the diagnostic on stderr and
// nothing on stdout, so `thriftysim ... > results.txt` never captures an
// error message as data.
func TestBadFlagsExitTwoStdoutClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCmd(t)
	cases := [][]string{
		{"-config", "Bogus"},
		{"-app", "NoSuchApp"},
		{"-wakeup", "psychic"},
		{"-fault", "drop=banana"},
		{"-nodes", "3"},
		// -scaling assembles an mp.Config from the command line; NewMachine's
		// returned error must surface through the same exit-2 path rather
		// than the panic it used to be.
		{"-scaling", "96"},
		{"-scaling", "64", "-radix", "1"},
		{"-scaling", "64", "-alg", "butterfly"},
		// -core-scaling validates the sharded core machine's knobs up
		// front through the same exit-2 contract.
		{"-core-scaling", "63"},
		{"-core-scaling", "2048"},
		{"-core-scaling", "64", "-topology", "torus"},
		{"-core-scaling", "64", "-j", "-1"},
		{"-core-scaling", "64", "-scaling", "64"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%v: expected exit error, got %v", args, err)
		}
		if code := ee.ExitCode(); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout not clean: %q", args, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("%v: no diagnostic on stderr", args)
		}
	}
}

// TestScalingModeRuns smoke-tests the parallel-engine scaling mode end to
// end through the CLI, including that -j only changes the shard count, not
// the printed physics.
func TestScalingModeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCmd(t)
	run := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stderr.String())
		}
		return stdout.String()
	}
	one := run("-scaling", "64", "-alg", "dissemination", "-j", "1")
	if !strings.Contains(one, "64 nodes, dissemination") {
		t.Fatalf("unexpected scaling header:\n%s", one)
	}
	// Shard-count invariance, observed at the user-facing surface: the
	// output lines carry spans, joules, and wake counts, so any physics
	// divergence across -j shows up here.
	if four := run("-scaling", "64", "-alg", "dissemination", "-j", "4"); stripShards(four) != stripShards(one) {
		t.Fatalf("-j 4 output diverged from -j 1:\n%s\nvs\n%s", four, one)
	}
}

// TestCoreScalingModeRuns smoke-tests the core-machine scaling mode end
// to end through the CLI: its table must be the committed 64-CPU artifact
// byte for byte, spans, joules and per-CPU digests included, since both
// come from the same harness experiment at the default seed.
func TestCoreScalingModeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCmd(t)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-core-scaling", "64", "-topology", "noctree")
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "64 CPUs") || !strings.Contains(out, "noc tree thrifty:") {
		t.Fatalf("unexpected core-scaling output:\n%s", out)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "core_scaling_64.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out, string(want)) {
		t.Fatalf("table differs from results/core_scaling_64.txt:\n%s\nwant\n%s", out, want)
	}
}

// stripShards removes the header line, the only place the shard count
// legitimately appears in -scaling output.
func stripShards(out string) string {
	_, rest, _ := strings.Cut(out, "\n")
	return rest
}

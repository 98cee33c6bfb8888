package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run the command in a child process: the test binary
// re-executes itself with the command's arguments and this variable set.
func TestMain(m *testing.M) {
	if os.Getenv("HUNTER_FLEET_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HUNTER_FLEET_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	var ee *exec.ExitError
	if err := cmd.Run(); errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// The fleet's -metrics-out exposition carries the runtime and fork-join
// gauges every other command exports, not just the fleet's own metrics.
func TestMetricsOutHasRuntimeAndParallelGauges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.txt")
	_, stderr, code := runMain(t, "-tenants", "2", "-seed", "11", "-metrics-out", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"parallel.workers", "runtime.goroutines", "fleet.tenants_admitted"} {
		if !strings.Contains(string(raw), g) {
			t.Errorf("fleet exposition lacks %s", g)
		}
	}
}

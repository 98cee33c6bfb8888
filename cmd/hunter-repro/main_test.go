package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command in a child process: the test binary
// re-executes itself with the command's arguments and this variable set.
func TestMain(m *testing.M) {
	if os.Getenv("HUNTER_REPRO_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A -scale that is not a finite positive number is a usage error (exit 2)
// before anything runs; NaN used to become an arbitrary budget.
func TestBadScaleIsUsageError(t *testing.T) {
	for _, scale := range []string{"NaN", "+Inf", "-Inf", "0", "-1"} {
		cmd := exec.Command(os.Args[0], "-exp", "table1", "-scale", scale)
		cmd.Env = append(os.Environ(), "HUNTER_REPRO_RUN_MAIN=1")
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		code := 0
		var ee *exec.ExitError
		if err := cmd.Run(); errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != 2 || !strings.Contains(errb.String(), "-scale") || out.Len() != 0 {
			t.Errorf("-scale %s: exit %d, stderr %q, stdout %q; want exit 2 naming -scale and no output",
				scale, code, errb.String(), out.String())
		}
	}
}

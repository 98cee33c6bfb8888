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
	if os.Getenv("HUNTER_TUNE_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HUNTER_TUNE_RUN_MAIN=1")
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

// Bad input fails closed: a non-zero exit, an error naming the input, and
// nothing on stdout, because every flag is checked before the run starts.
func TestBadInputFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-db", "oracle"}, `unknown dialect "oracle"`},
		{[]string{"-workload", "tpc-h"}, `unknown workload "tpc-h"`},
		{[]string{"-alpha", "NaN"}, "alpha NaN"},
		{[]string{"-fix", "innodb_buffer_pool_size=NaN"}, "innodb_buffer_pool_size=NaN"},
		{[]string{"-range", "innodb_buffer_pool_size=NaN:1"}, "innodb_buffer_pool_size=NaN:1"},
		{[]string{"-fix", "no_such_knob=1"}, `"no_such_knob"`},
		{[]string{"-drift-stream", "tides"}, "tides"},
		{[]string{"-guardrails", "-guard-margin", "NaN"}, "margin NaN"},
		{[]string{"-guard-margin", "NaN"}, "margin NaN"},
		{[]string{"-guard-margin", "-0.1"}, "margin -0.1"},
		{[]string{"-slo-floor-tps", "NaN"}, "floor NaN"},
		{[]string{"-resume"}, "-resume needs -checkpoint-dir"},
	} {
		stdout, stderr, code := runMain(t, tc.args...)
		if code == 0 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("%q: exit %d, stderr %q, stdout %q; want non-zero exit and an error naming %q",
				tc.args, code, firstLine(stderr), stdout, tc.want)
		}
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

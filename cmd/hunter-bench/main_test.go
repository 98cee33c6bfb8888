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
	if os.Getenv("HUNTER_BENCH_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HUNTER_BENCH_RUN_MAIN=1")
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

// Bad input fails closed before the stress test runs.
func TestBadInputFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-db", "oracle"}, `unknown dialect "oracle"`},
		{[]string{"-workload", "tpc-h"}, `unknown workload "tpc-h"`},
		{[]string{"-set", "innodb_buffer_pool_size=NaN"}, "innodb_buffer_pool_size=NaN"},
		{[]string{"-set", "innodb_buffer_pool_size"}, "want name=value"},
		{[]string{"-set", "no_such_knob=1"}, `unknown knob "no_such_knob"`},
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

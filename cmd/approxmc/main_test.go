package main

import (
	"bytes"
	"strings"
	"testing"
)

// approxmc answers a formula over zero variables with an error and exit
// status 1, for every algorithm, instead of a panic's stack trace.
func TestZeroVariablesIsAnError(t *testing.T) {
	for _, in := range []struct{ format, body string }{
		{"cnf", "p cnf 0 0\n"},
		{"dnf", "p dnf 0 0\n"},
	} {
		for _, alg := range []string{"bucketing", "minimum", "estimation", "karpluby"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-format", in.format, "-alg", alg}, strings.NewReader(in.body), &stdout, &stderr)
			if code != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "at least one variable") {
				t.Errorf("%s %s: exit %d, stdout %q, stderr %q; want exit 1 and the variable error",
					in.format, alg, code, stdout.String(), stderr.String())
			}
		}
	}
}

// A one-variable formula still counts: x1 has one model.
func TestOneVariableCounts(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, strings.NewReader("p cnf 1 1\n1 0\n"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "s mc 1\n") {
		t.Fatalf("output %q, want the count 1", stdout.String())
	}
}

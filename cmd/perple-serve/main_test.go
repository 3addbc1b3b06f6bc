package main

import (
	"bytes"
	"strings"
	"testing"
)

// Usage errors exit 2 before the service starts listening.
func TestServeUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-wal", t.TempDir()}, "-wal requires -checkpoint-dir"},
		{[]string{"-nosuchflag"}, "not defined"},
	} {
		var out, errOut bytes.Buffer
		code := run(tc.args, &out, &errOut)
		if code != 2 || !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, errOut.String(), tc.want)
		}
	}
}

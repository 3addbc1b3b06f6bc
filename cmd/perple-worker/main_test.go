package main

import (
	"bytes"
	"strings"
	"testing"
)

// Usage errors exit 2 before the worker contacts a server.
func TestWorkerUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "-campaign is required"},
		{[]string{"-server", "http://127.0.0.1:1"}, "-campaign is required"},
		{[]string{"-nosuchflag"}, "not defined"},
	} {
		var out, errOut bytes.Buffer
		code := run(tc.args, &out, &errOut)
		if code != 2 || !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, errOut.String(), tc.want)
		}
	}
}

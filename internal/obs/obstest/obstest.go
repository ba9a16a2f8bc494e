// Package obstest is the process-lifecycle conformance check for the
// deesim binaries, in the manner of testing/fstest: each binary's test
// runs its realMain through Lifecycle, so the contract obs.Main gives
// every binary — typed exit codes, a -metrics-out snapshot on every path
// out, and a stderr that is the slog log and nothing else — is written
// once and checked against all of them.
package obstest

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Case is one run of a binary and the exit code it must end with.
type Case struct {
	Name string
	Args []string
	Code int
}

// Lifecycle runs each case through main in-process, with -log-json and
// -metrics-out added in front of its arguments, and checks the exit
// code, that the metrics snapshot was written, that every stderr line
// is one JSON object, and that a failed run logged exactly one record
// at ERROR (the exit record).
func Lifecycle(t *testing.T, main func(args []string, stdout, stderr io.Writer) int, cases []Case) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			metrics := filepath.Join(t.TempDir(), "m.prom")
			var stdout, stderr bytes.Buffer
			args := append([]string{"-log-json", "-metrics-out", metrics}, c.Args...)
			if code := main(args, &stdout, &stderr); code != c.Code {
				t.Errorf("exit code %d, want %d\nstderr:\n%s", code, c.Code, stderr.String())
			}
			if _, err := os.Stat(metrics); err != nil {
				t.Errorf("no -metrics-out snapshot: %v", err)
			}
			errRecords := 0
			if out := strings.TrimSuffix(stderr.String(), "\n"); out != "" {
				for _, line := range strings.Split(out, "\n") {
					var rec map[string]any
					if err := json.Unmarshal([]byte(line), &rec); err != nil {
						t.Errorf("stderr line is not one JSON object: %q", line)
					} else if rec["level"] == "ERROR" {
						errRecords++
					}
				}
			}
			if c.Code != 0 && errRecords != 1 {
				t.Errorf("%d ERROR records for a failed run, want the one exit record\nstderr:\n%s", errRecords, stderr.String())
			}
		})
	}
}

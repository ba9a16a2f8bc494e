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

// Results regenerates every results/ file that results/README.md lists
// under a command of the named binary: it runs the command's arguments
// through main in-process and fails unless stdout equals the checked-in
// file byte for byte. The commands run at full trace length, so short
// mode skips it, and so does the race detector, under which they take
// minutes. The test must run from cmd/<binary>.
func Results(t *testing.T, binary string, main func(args []string, stdout, stderr io.Writer) int) {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("regenerating results/ takes full-length sweeps")
	}
	dir := filepath.Join("..", "..", "results")
	index, err := os.ReadFile(filepath.Join(dir, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(string(index), "\n") {
		// | `file` | `binary args...` | paper artifact |
		cols := strings.Split(line, "|")
		if len(cols) < 4 {
			continue
		}
		file, cmd := strings.Trim(cols[1], " `"), strings.Fields(strings.Trim(cols[2], " `"))
		if len(cmd) == 0 || cmd[0] != binary {
			continue
		}
		rows++
		t.Run(file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := main(cmd[1:], &stdout, &stderr); code != 0 {
				t.Fatalf("%s: exit code %d\nstderr:\n%s", strings.Join(cmd, " "), code, stderr.String())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				got := strings.Split(stdout.String(), "\n")
				for i, w := range strings.Split(string(want), "\n") {
					if i >= len(got) || got[i] != w {
						g := "<missing>"
						if i < len(got) {
							g = got[i]
						}
						t.Fatalf("%s differs from results/%s at line %d:\n  got:  %q\n  want: %q", strings.Join(cmd, " "), file, i+1, g, w)
					}
				}
				t.Fatalf("%s prints %d lines past the end of results/%s", strings.Join(cmd, " "), len(got)-len(strings.Split(string(want), "\n")), file)
			}
		})
	}
	if rows == 0 {
		t.Fatalf("results/README.md lists no %s command", binary)
	}
}

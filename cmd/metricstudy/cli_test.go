package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hpcmetrics/internal/persist"
)

// The CLI suite builds the real metricstudy binary once and drives it as
// a subprocess.

var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	if !testing.Short() {
		dir, err := os.MkdirTemp("", "metricstudy-cli")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		out, err := exec.Command("go", "build", "-o", dir, "hpcmetrics/cmd/metricstudy").CombinedOutput()
		if err != nil {
			fmt.Fprintf(os.Stderr, "building metricstudy: %v\n%s", err, out)
			os.Exit(1)
		}
		binDir = dir
	}
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// runBin runs the built metricstudy and fails the test on a non-zero
// exit.
func runBin(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "metricstudy"), args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("metricstudy %v: %v\nstderr:\n%s", args, err, errb.String())
	}
	return out.String()
}

// TestRejectsBadInvocations: a misspelled -only section is a usage error
// rather than an empty exit-0 run.
func TestRejectsBadInvocations(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the built binary; skipped in -short")
	}
	for _, tc := range []struct {
		args     []string
		wantCode int
		wantErr  string
	}{
		{[]string{"-only", "tabel4"}, 2, `unknown -only section "tabel4"`},
		{[]string{"-only", "none"}, 2, `unknown -only section "none"`},
	} {
		cmd := exec.Command(filepath.Join(binDir, "metricstudy"), tc.args...)
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		err := cmd.Run()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != tc.wantCode {
			t.Errorf("%v: err = %v, want exit code %d", tc.args, err, tc.wantCode)
		}
		if !strings.Contains(errb.String(), tc.wantErr) {
			t.Errorf("%v: stderr missing %q:\n%s", tc.args, tc.wantErr, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed output:\n%s", tc.args, out.String())
		}
	}
}

// TestCheckpointInfo exercises the journal triage view over a clean
// journal, a torn tail, and mid-file corruption.
func TestCheckpointInfo(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the built binary; skipped in -short")
	}
	path := writeJournal(t)
	stdout := runBin(t, "-checkpoint-info", path)
	for _, want := range []string{
		"options tag: opts=x",
		"records: 3 (0 probes, 3 cells)",
		"last unit: cell unit2",
		"status: clean",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("checkpoint-info missing %q:\n%s", want, stdout)
		}
	}

	// A crash mid-append: the last record line is cut short.
	path = writeJournal(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	stdout = runBin(t, "-checkpoint-info", path)
	for _, want := range []string{
		"records: 2 (0 probes, 2 cells)",
		"status: torn tail (undecodable line 4; a resume truncates it)",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("torn journal: checkpoint-info missing %q:\n%s", want, stdout)
		}
	}

	path = writeJournal(t)
	if err := corruptJournal(path); err != nil {
		t.Fatal(err)
	}
	stdout = runBin(t, "-checkpoint-info", path)
	if !strings.Contains(stdout, "status: corrupt (bad record at line 2, 2 intact records stranded after it; a resume truncates") {
		t.Errorf("corrupt journal not triaged:\n%s", stdout)
	}
}

// writeJournal writes a three-record journal and returns its path.
func writeJournal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "study.ckpt")
	ckpt, err := persist.CreateCheckpoint(path, "opts=x")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ckpt.Append(persist.CellRecord{Stage: persist.StageCell, Key: fmt.Sprintf("unit%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// corruptJournal flips one checksum hex digit on the journal's first
// record line, leaving later records stranded beyond the bad line —
// mid-file corruption rather than a torn tail.
func corruptJournal(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := bytes.Split(raw, []byte("\n"))
	if len(lines) < 3 || len(bytes.TrimSpace(lines[2])) == 0 {
		return fmt.Errorf("%s: need at least two records to corrupt mid-file", path)
	}
	const marker = `"crc":"`
	i := bytes.Index(lines[1], []byte(marker))
	if i < 0 {
		return fmt.Errorf("%s: first record has no checksum field", path)
	}
	pos := i + len(marker)
	line := append([]byte{}, lines[1]...)
	if line[pos] == '0' {
		line[pos] = 'f'
	} else {
		line[pos] = '0'
	}
	lines[1] = line
	return os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644)
}

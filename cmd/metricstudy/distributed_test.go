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
	"sync"
	"testing"

	"hpcmetrics/internal/persist"
)

// The end-to-end CLI suite: it builds the real metricstudy and
// tracecheck binaries, runs shards by hand into one directory, and
// demands the merged Table 4 be byte-identical to a sequential
// single-process run.

var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	if !testing.Short() {
		dir, err := os.MkdirTemp("", "metricstudy-e2e")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		out, err := exec.Command("go", "build", "-o", dir,
			"hpcmetrics/cmd/metricstudy", "hpcmetrics/cmd/tracecheck").CombinedOutput()
		if err != nil {
			fmt.Fprintf(os.Stderr, "building e2e binaries: %v\n%s", err, out)
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

// sliceArgs restrict every run to one app on two target systems — a
// grid small enough for subprocess runs, big enough to shard.
var sliceArgs = []string{"-apps", "avus-standard", "-targets", "ARL_Opteron,MHPCC_P3"}

// runBin runs a built binary and fails the test on a non-zero exit.
func runBin(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr:\n%s", bin, args, err, errb.String())
	}
	return out.String(), errb.String()
}

var (
	goldenOnce   sync.Once
	goldenTable4 string
)

// golden returns the sequential single-process Table 4 CSV the merged
// shard runs must reproduce byte for byte.
func golden(t *testing.T) string {
	t.Helper()
	goldenOnce.Do(func() {
		args := append([]string{"-quiet", "-csv", "-only", "table4"}, sliceArgs...)
		goldenTable4, _ = runBin(t, "metricstudy", args...)
	})
	if goldenTable4 == "" {
		t.Fatal("no golden Table 4 (sequential run failed earlier)")
	}
	return goldenTable4
}

// TestHandRunShardsMerge drives the sharded flow the way an operator
// does: two traced shard runs journal into one directory, then a
// -checkpoint-dir merge prints the study. The shards print no tables,
// the merged Table 4 is byte-identical to the sequential run, and
// tracecheck -shards accepts the shards' span logs.
func TestHandRunShardsMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess shard runs; skipped in -short")
	}
	want := golden(t)
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		stem := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		args := append([]string{
			"-quiet", "-csv", "-only", "table4",
			"-shard-index", fmt.Sprint(i), "-shard-count", "2",
			"-checkpoint", stem + ".ckpt",
			"-spans", stem + ".spans.jsonl", "-manifest", stem + ".manifest.json",
		}, sliceArgs...)
		if stdout, _ := runBin(t, "metricstudy", args...); stdout != "" {
			t.Errorf("shard %d printed tables:\n%s", i, stdout)
		}
	}

	args := append([]string{"-quiet", "-csv", "-only", "table4", "-checkpoint-dir", dir}, sliceArgs...)
	stdout, stderr := runBin(t, "metricstudy", args...)
	if stdout != want {
		t.Errorf("merged Table 4 differs from the sequential run:\n--- got\n%s--- want\n%s", stdout, want)
	}
	if strings.Contains(stderr, "quarantined") || strings.Contains(stderr, "no journal covered") {
		t.Errorf("clean merge reported damage:\n%s", stderr)
	}

	tcOut, _ := runBin(t, "tracecheck", "-shards", dir)
	for _, name := range []string{"shard0", "shard1"} {
		if !strings.Contains(tcOut, name) {
			t.Errorf("tracecheck output missing %s: %s", name, tcOut)
		}
	}
}

// TestRejectsBadInvocations: a misspelled -only section is a usage error
// rather than an empty exit-0 run, and a shard without a journal fails
// instead of running its slice and dropping it.
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
		{[]string{"-shard-index", "0", "-shard-count", "2", "-only", "table4"}, 1, "needs a CheckpointPath"},
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

// TestCheckpointInfo exercises the journal triage view over a clean and
// a mid-file-corrupted shard journal.
func TestCheckpointInfo(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the built binary; skipped in -short")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "shard0.ckpt")
	tag := persist.ShardTag("opts=x", persist.ShardSpec{Index: 0, Count: 2, Name: "shard0"})
	ckpt, err := persist.CreateCheckpoint(path, tag)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ckpt.Append(persist.CellRecord{Stage: "cell", Key: fmt.Sprintf("unit%d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	stdout, _ := runBin(t, "metricstudy", "-checkpoint-info", path)
	for _, want := range []string{
		"shard: 0/2 (shard0)",
		"records: 3 (0 probes, 3 cells)",
		"last unit: cell unit2",
		"status: clean",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("checkpoint-info missing %q:\n%s", want, stdout)
		}
	}

	if err := corruptJournal(path); err != nil {
		t.Fatal(err)
	}
	stdout, _ = runBin(t, "metricstudy", "-checkpoint-info", path)
	if !strings.Contains(stdout, "status: corrupt (bad record at line 2, 2 intact records stranded after it") {
		t.Errorf("corrupt journal not triaged:\n%s", stdout)
	}
}

// corruptJournal flips one checksum hex digit on the journal's first
// record line, leaving later records stranded beyond the bad line — the
// signature MergeCheckpoints must quarantine (a torn tail would merely
// be truncated).
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

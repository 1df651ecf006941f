package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/snapshot"
)

// goldenCkptEvent is the event boundary the committed checkpoint fixture
// freezes the golden scenario at — mid-trace, with placements, boots,
// spare plans, and migrations all live.
const goldenCkptEvent = "400"

// TestGoldenCheckpointResume pins the checkpoint FORMAT, not just the
// behavior: a checkpoint written by a past build and committed under
// testdata must still restore in this build, and the resumed run's
// canonical trace must be byte-for-byte the tail of the committed golden
// trace. Format drift without a version bump, or any resume divergence,
// fails here. Regenerate alongside the golden trace with
// `go test ./cmd/dvmpsim -run Golden -update`.
func TestGoldenCheckpointResume(t *testing.T) {
	ckptPath := filepath.Join("testdata", "golden_ckpt.json")

	if *update {
		var sb strings.Builder
		args := append(traceArgs(filepath.Join(t.TempDir(), "prefix.jsonl")),
			"-checkpoint", ckptPath, "-stop-after", goldenCkptEvent)
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "stopping") {
			t.Fatalf("golden run did not reach the checkpoint cutoff:\n%s", sb.String())
		}
		t.Logf("golden checkpoint updated: %s", ckptPath)
		return
	}

	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("missing golden checkpoint (run with -update): %v", err)
	}
	tailPath := filepath.Join(t.TempDir(), "tail.jsonl")
	var sb strings.Builder
	args := append(traceArgs(tailPath), "-resume", ckptPath)
	if err := run(args, &sb); err != nil {
		t.Fatalf("resume from committed checkpoint failed: %v", err)
	}

	raw, err := os.ReadFile(tailPath)
	if err != nil {
		t.Fatal(err)
	}
	var tail bytes.Buffer
	if err := obs.Canonicalize(bytes.NewReader(raw), &tail); err != nil {
		t.Fatal(err)
	}
	tailLines := bytes.Split(bytes.TrimRight(tail.Bytes(), "\n"), []byte("\n"))
	if len(tailLines) == 0 || len(tailLines[0]) == 0 {
		t.Fatal("resumed run emitted no trace events")
	}

	// The tail's first event carries the logical clock it resumed at;
	// the golden trace's line at that index must start the identical
	// suffix.
	var head struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(tailLines[0], &head); err != nil {
		t.Fatalf("first tail line is not a trace event: %v\n%s", err, tailLines[0])
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_trace.jsonl"))
	if err != nil {
		t.Fatalf("missing golden trace (run with -update): %v", err)
	}
	goldenLines := bytes.Split(bytes.TrimRight(golden, "\n"), []byte("\n"))
	if int(head.Seq) >= len(goldenLines) {
		t.Fatalf("tail starts at seq %d but golden trace has only %d lines", head.Seq, len(goldenLines))
	}
	wantTail := goldenLines[head.Seq:]
	if len(tailLines) != len(wantTail) {
		t.Fatalf("resumed tail has %d events, golden tail has %d", len(tailLines), len(wantTail))
	}
	for i := range tailLines {
		if !bytes.Equal(tailLines[i], wantTail[i]) {
			t.Fatalf("resumed trace diverges from golden at seq %d:\ngot:  %s\nwant: %s",
				head.Seq+uint64(i), tailLines[i], wantTail[i])
		}
	}
}

// TestGoldenCheckpointBytes pins what a checkpoint holds: this build,
// stopped at the fixture's event, must write the committed file byte for
// byte — format version included. State that lives across passes without
// being part of the run (the candidate index, the roster) is
// rebuilt after a restore and must never reach the envelope.
func TestGoldenCheckpointBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_ckpt.json"))
	if err != nil {
		t.Fatalf("missing golden checkpoint (run with -update): %v", err)
	}
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "ckpt.json")
	var sb strings.Builder
	args := append(traceArgs(filepath.Join(dir, "prefix.jsonl")),
		"-checkpoint", ckptPath, "-stop-after", goldenCkptEvent)
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint at event %s is %d bytes and differs from the committed %d-byte fixture",
			goldenCkptEvent, len(got), len(want))
	}
}

// TestCheckpointVersionRejected corrupts the committed fixture's format
// version and confirms the CLI refuses it with a one-line error rather
// than restoring garbage.
func TestCheckpointVersionRejected(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_ckpt.json"))
	if err != nil {
		t.Skipf("no golden checkpoint yet: %v", err)
	}
	bad := bytes.Replace(raw, []byte(fmt.Sprintf(`"version":%d`, snapshot.Version)), []byte(`"version":99`), 1)
	if bytes.Equal(bad, raw) {
		t.Fatal("could not find the version field to corrupt")
	}
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err = run(append(traceArgs(filepath.Join(t.TempDir(), "t.jsonl")), "-resume", badPath), &sb)
	if err == nil {
		t.Fatal("resume accepted a checkpoint with an unknown format version")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Errorf("error does not mention the version: %v", err)
	}
}

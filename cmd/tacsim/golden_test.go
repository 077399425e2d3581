package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"taccc/internal/obs/runlog"
)

// archiveEventsSHA256 pins the archived events.jsonl (solver iterations
// plus every request's spans) of a 300×12, 5 s run. It was captured when
// every span went through the generic event encoder, so the span
// encoding must keep reproducing those bytes at any -workers.
const archiveEventsSHA256 = "907f5253419cb97dc2197649c2061eb2764bf8d3131045aaa1fd58c53fd5ac81"

func TestArchiveEventsGolden(t *testing.T) {
	for _, workers := range []int{1, 2} {
		dir := filepath.Join(t.TempDir(), "run")
		var out, errBuf bytes.Buffer
		code := run([]string{
			"-iot", "300", "-edge", "12", "-algo", "greedy", "-duration", "5",
			"-warmup", "1", "-seed", "3", "-trace-sample", "0",
			"-workers", strconv.Itoa(workers), "-archive", dir,
		}, &out, &errBuf)
		if code != 0 {
			t.Fatalf("workers=%d: exit %d: %s", workers, code, errBuf.String())
		}
		data, err := os.ReadFile(filepath.Join(dir, runlog.EventsFile))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != archiveEventsSHA256 {
			t.Errorf("workers=%d: events.jsonl sha256 %s (%d bytes), want %s", workers, got, len(data), archiveEventsSHA256)
		}
	}
}

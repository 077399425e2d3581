package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"taccc/internal/obs"
	"taccc/internal/obs/runlog"
)

// traceStreamSHA256 pins the archived trace.jsonl of a single-worker
// tacsolve run with its wall-clock values (every "_ms" field) set to 0,
// captured when every pipeline span went through the generic event
// encoder. Names, IDs, parents, attributes, key order and escaping are
// deterministic at -workers 1; the timings are not, so the test checks
// instead that each timing is written exactly as encoding/json writes
// that float64.
const traceStreamSHA256 = "f236f2366dd665bf67be9ceeb98a6d0b8ed40f7cc189e5b2be14f9c1afcb9111"

func TestTraceStreamGolden(t *testing.T) {
	dir := t.TempDir()
	arDir := filepath.Join(dir, "run")
	runScenario(t, "-workers", "1", "-trace-out", filepath.Join(dir, "trace.json"), "-archive", arDir)
	data, err := os.ReadFile(filepath.Join(arDir, runlog.TraceFile))
	if err != nil {
		t.Fatal(err)
	}
	var norm bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		raw := append(sc.Bytes(), '\n')
		events, err := obs.ReadEventStream(bytes.NewReader(raw))
		if err != nil || len(events) != 1 {
			t.Fatalf("line %q: %d events, %v", raw, len(events), err)
		}
		e := events[0]
		// Decoded numbers keep their text, so re-encoding reproduces a
		// canonical line (sorted keys, encoding/json escaping) exactly.
		canon, err := obs.EncodeEventLine(e)
		if err != nil || !bytes.Equal(canon, raw) {
			t.Fatalf("line is not canonical:\n got  %s want %s (%v)", raw, canon, err)
		}
		start, _ := e.Num("start_ms")
		end, _ := e.Num("end_ms")
		if dur, _ := e.Num("dur_ms"); dur != end-start {
			t.Fatalf("dur_ms %v != end_ms-start_ms %v", dur, end-start)
		}
		for k, v := range e.Fields {
			if !strings.HasSuffix(k, "_ms") {
				continue
			}
			num := v.(json.Number)
			f, err := strconv.ParseFloat(string(num), 64)
			if err != nil {
				t.Fatalf("%s=%s: %v", k, num, err)
			}
			want, _ := json.Marshal(f)
			if string(num) != string(want) {
				t.Fatalf("%s written as %s, encoding/json writes %s", k, num, want)
			}
			e.Fields[k] = json.Number("0")
		}
		line, err := obs.EncodeEventLine(e)
		if err != nil {
			t.Fatal(err)
		}
		norm.Write(line)
	}
	sum := sha256.Sum256(norm.Bytes())
	if got := hex.EncodeToString(sum[:]); got != traceStreamSHA256 {
		t.Errorf("normalized trace.jsonl sha256 %s, want %s:\n%s", got, traceStreamSHA256, norm.Bytes())
	}
}

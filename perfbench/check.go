package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"

	"taccc/internal/topology"
	"taccc/internal/workload"
)

// checkAssignment recomputes an assignment's total delay straight from
// the delay matrix and checks it: one in-range, reachable edge per device
// and no edge loaded beyond its capacity.
func checkAssignment(dm *topology.DelayMatrix, devices []workload.Device, capacity []float64, of []int) (float64, error) {
	if len(of) != len(devices) || len(of) != len(dm.DelayMs) {
		return 0, fmt.Errorf("assignment covers %d devices, want %d", len(of), len(devices))
	}
	load := make([]float64, len(capacity))
	total := 0.0
	for i, j := range of {
		if j < 0 || j >= len(capacity) {
			return 0, fmt.Errorf("device %d assigned to edge %d of %d", i, j, len(capacity))
		}
		d := dm.DelayMs[i][j]
		if math.IsInf(d, 0) || math.IsNaN(d) {
			return 0, fmt.Errorf("device %d assigned to unreachable edge %d", i, j)
		}
		total += d
		load[j] += devices[i].Load()
	}
	for j, l := range load {
		if l > capacity[j]*(1+1e-9) {
			return 0, fmt.Errorf("edge %d carries load %v over its capacity %v", j, l, capacity[j])
		}
	}
	return total, nil
}

// closeTo reports whether two recomputations of one sum agree up to
// floating-point reassociation.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// streamStats summarises one JSON-lines stream.
type streamStats struct {
	bytes, lines int64
	crc          uint32
	// roots counts root request spans; only a validating writer counts
	// them.
	roots int64
}

// countingWriter is the discard writer behind each JSONL sink of the
// sim-archive op. It always counts bytes and lines and keeps a CRC of
// the stream. With validate set it also checks that every line is one
// JSON object and counts the root "request" spans; that costs far more
// than the encoding it checks, so only the untimed reference op sets it.
type countingWriter struct {
	validate bool
	stats    streamStats
	partial  []byte
	err      error
}

var rootSpanField = []byte(`"name":"request"`)

func (w *countingWriter) Write(p []byte) (int, error) {
	w.stats.bytes += int64(len(p))
	w.stats.lines += int64(bytes.Count(p, []byte{'\n'}))
	w.stats.crc = crc32.Update(w.stats.crc, crc32.IEEETable, p)
	if !w.validate || w.err != nil {
		return len(p), nil
	}
	rest := p
	for {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			w.partial = append(w.partial, rest...)
			return len(p), nil
		}
		line := rest[:nl]
		if len(w.partial) > 0 {
			line = append(w.partial, line...)
			w.partial = w.partial[:0]
		}
		w.checkLine(line)
		rest = rest[nl+1:]
	}
}

func (w *countingWriter) checkLine(line []byte) {
	if w.err != nil {
		return
	}
	if len(line) == 0 || line[0] != '{' || !json.Valid(line) {
		w.err = fmt.Errorf("line %d is not a JSON object: %.80q", w.stats.lines, line)
		return
	}
	if bytes.Contains(line, rootSpanField) {
		w.stats.roots++
	}
}

// finish returns the stream's summary once its sink has been flushed:
// an error if a line failed validation or the stream does not end with
// a newline.
func (w *countingWriter) finish() (streamStats, error) {
	if w.err != nil {
		return w.stats, w.err
	}
	if len(w.partial) > 0 {
		return w.stats, fmt.Errorf("stream ends in an unterminated line: %.80q", w.partial)
	}
	if w.stats.lines == 0 {
		return w.stats, fmt.Errorf("stream is empty")
	}
	return w.stats, nil
}

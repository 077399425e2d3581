package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"testing"

	"taccc/internal/par"
)

// fuzzSpan builds a span from fuzz inputs. Each bit of kinds attaches
// one attribute: a string under the fuzzed key, then a float64, int,
// int64, uint64 and bool, then one value of a type the typed encoder
// leaves to the generic path (picked by sel), and last a set of ten
// more ints, which overflows the encoder's stack sort buffer.
func fuzzSpan(trace, id, parent uint64, name string, startMs, endMs float64,
	key, str string, num float64, i int64, u uint64, flag bool, kinds, sel uint8) Span {
	sp := Span{
		Trace: TraceID(trace), ID: SpanID(id), Parent: SpanID(parent),
		Name: name, StartMs: startMs, EndMs: endMs,
	}
	if kinds == 0 {
		return sp
	}
	sp.Attrs = map[string]interface{}{}
	if kinds&1 != 0 {
		sp.Attrs[key] = str
	}
	if kinds&2 != 0 {
		sp.Attrs["f"] = num
	}
	if kinds&4 != 0 {
		sp.Attrs["i"] = int(i)
	}
	if kinds&8 != 0 {
		sp.Attrs["i64"] = i
	}
	if kinds&16 != 0 {
		sp.Attrs["u"] = u
	}
	if kinds&32 != 0 {
		sp.Attrs["b"] = flag
	}
	if kinds&64 != 0 {
		exotic := []interface{}{float32(num), int32(i), nil, json.Number(str), []string{str}, uint32(u)}
		sp.Attrs["x"] = exotic[int(sel)%len(exotic)]
	}
	if kinds&128 != 0 {
		for k := 0; k < 10; k++ {
			sp.Attrs["k"+strconv.Itoa(k)] = k * int(i)
		}
	}
	return sp
}

// FuzzSpanLine checks that JSONL.EmitSpan writes exactly the line
// encodeLine(sp.Event()) writes, and fails exactly when it fails. The
// seed corpus in testdata/fuzz/FuzzSpanLine covers the float formatting
// edges (0, -0, 1e-7, 1e-6, 1e21, subnormals, end-start round-off),
// non-finite numbers, strings that need escaping and every attribute
// value type.
func FuzzSpanLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, trace, id, parent uint64, name string, startMs, endMs float64,
		key, str string, num float64, i int64, u uint64, flag bool, kinds, sel uint8) {
		sp := fuzzSpan(trace, id, parent, name, startMs, endMs, key, str, num, i, u, flag, kinds, sel)
		want, wantErr := encodeLine(sp.Event())

		if line, ok := appendSpanLine(nil, sp); ok {
			if wantErr != nil {
				t.Fatalf("typed encoder wrote %q; encodeLine fails: %v", line, wantErr)
			}
			if !bytes.Equal(line, want) {
				t.Fatalf("typed encoder:\n got  %q\n want %q", line, want)
			}
		}

		var buf bytes.Buffer
		js := NewJSONL(&buf)
		js.EmitSpan(sp)
		err := js.Flush()
		switch {
		case wantErr != nil && (err == nil || err.Error() != wantErr.Error()):
			t.Fatalf("EmitSpan error %v, encodeLine %v", err, wantErr)
		case wantErr == nil && err != nil:
			t.Fatalf("EmitSpan error %v, encodeLine none", err)
		case wantErr == nil && !bytes.Equal(buf.Bytes(), want):
			t.Fatalf("EmitSpan:\n got  %q\n want %q", buf.Bytes(), want)
		case wantErr != nil && buf.Len() != 0:
			t.Fatalf("EmitSpan wrote %q for a span encodeLine rejects", buf.Bytes())
		}
	})
}

// TestEmitSpanFallsBackToEmit checks that a sink without EmitSpan
// receives the span as sp.Event().
func TestEmitSpanFallsBackToEmit(t *testing.T) {
	sp := Span{Trace: 4, ID: 2, Parent: 1, Name: "queue", StartMs: 1, EndMs: 3.5}
	var got []Event
	EmitSpan(SinkFunc(func(e Event) { got = append(got, e) }), sp)
	if len(got) != 1 || got[0].Kind != "span" || got[0].Fields["dur_ms"] != 2.5 {
		t.Fatalf("fallback delivered %+v", got)
	}
	EmitSpan(nil, sp) // nil sink: no-op
}

// spanOnly counts spans that arrive through EmitSpan and fails the test
// if any arrives as a generic event.
type spanOnly struct {
	t *testing.T
	n int
}

func (s *spanOnly) Emit(e Event)     { s.t.Errorf("span arrived through Emit: %+v", e) }
func (s *spanOnly) EmitSpan(sp Span) { s.n++ }

// TestMultiSinkKeepsSpanPath checks that a fan-out hands spans to every
// SpanSink behind it as spans, and still renders them as events for
// sinks that only implement Emit, with the same bytes on both streams.
func TestMultiSinkKeepsSpanPath(t *testing.T) {
	direct := &spanOnly{t: t}
	var a, b bytes.Buffer
	ja, jb := NewJSONL(&a), NewJSONL(&b)
	var events []Event
	m := MultiSink(direct, ja, SinkFunc(jb.Emit), SinkFunc(func(e Event) { events = append(events, e) }))
	if _, ok := m.(SpanSink); !ok {
		t.Fatalf("MultiSink result %T does not implement SpanSink", m)
	}
	sp := Span{Trace: 9, ID: 1, Name: "request", StartMs: 0.25, EndMs: 7,
		Attrs: map[string]interface{}{"device": 3, "edge": 1, "outcome": "ok"}}
	EmitSpan(m, sp)
	EmitSpan(m, Span{Trace: 9, ID: 2, Parent: 1, Name: "uplink", StartMs: 0.25, EndMs: 1})
	if err := ja.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jb.Flush(); err != nil {
		t.Fatal(err)
	}
	if direct.n != 2 || len(events) != 2 {
		t.Fatalf("span sink got %d spans, event sink %d events; want 2 each", direct.n, len(events))
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("typed and generic streams differ:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}

// TestJSONLEmitSpanConcurrent emits spans into one JSONL sink, behind a
// fan-out, from many goroutines under -race. Some spans take the typed
// path and some the fallback (a name that needs escaping); the stream
// must hold exactly the generic encoding of each, whole, in some order.
func TestJSONLEmitSpanConcurrent(t *testing.T) {
	const n = 2000
	var buf bytes.Buffer
	js := NewJSONL(&buf)
	sink := MultiSink(js, NullSink{})
	span := func(i int) Span {
		name := "service"
		if i%7 == 0 {
			name = "a&b"
		}
		return Span{Trace: TraceID(i), ID: 4, Parent: 1, Name: name, StartMs: float64(i) / 3, EndMs: float64(i)/3 + 0.1,
			Attrs: map[string]interface{}{"edge": i % 5, "outcome": "ok"}}
	}
	par.For(8, n, func(i int) { EmitSpan(sink, span(i)) })
	if err := js.Flush(); err != nil {
		t.Fatal(err)
	}
	want := make([]string, n)
	for i := range want {
		line, err := encodeLine(span(i).Event())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(line)
	}
	got := strings.SplitAfter(buf.String(), "\n")
	got = got[:len(got)-1] // the empty tail after the last newline
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != n || strings.Join(got, "") != strings.Join(want, "") {
		t.Fatalf("stream of %d lines does not match the %d generic encodings", len(got), n)
	}
	if js.N() != n {
		t.Fatalf("N() = %d, want %d", js.N(), n)
	}
}

// TestJSONLEmitSpanAllocs pins the typed span path at zero allocations
// per span once the line buffer has grown: a child span, and a root span
// with the cluster simulator's three attributes.
func TestJSONLEmitSpanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race-detector shadow allocations")
	}
	js := NewJSONL(io.Discard)
	for _, sp := range []Span{
		{Trace: 123456, ID: 3, Parent: 1, Name: "queue", StartMs: 1042.817, EndMs: 1043.2291},
		{Trace: 123456, ID: 1, Name: "request", StartMs: 1040.5, EndMs: 1051.03125,
			Attrs: map[string]interface{}{"device": 1234, "edge": 7, "outcome": "missed"}},
	} {
		if allocs := testing.AllocsPerRun(200, func() { js.EmitSpan(sp) }); allocs != 0 {
			t.Errorf("%s span: %.1f allocs per EmitSpan, want 0", sp.Name, allocs)
		}
	}
	if err := js.Flush(); err != nil {
		t.Fatal(err)
	}
}

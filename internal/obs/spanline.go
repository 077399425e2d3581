package obs

import (
	"math"
	"strconv"
)

// SpanSink is implemented by sinks that consume a Span as it is, without
// first rendering it as a generic Event. EmitSpan prefers it.
type SpanSink interface {
	EmitSpan(Span)
}

// spanAttrStack is how many attributes appendSpanLine sorts without a
// heap allocation; the cluster's root span carries three.
const spanAttrStack = 8

// attrKV is one span attribute, sorted by key before encoding.
type attrKV struct {
	k string
	v interface{}
}

// appendSpanLine appends to b the JSONL line encodeLine(sp.Event())
// produces, without building the event's field maps: the keys of a span
// event are fixed, so their sorted order is too — the "attr."-prefixed
// attributes in key order, then dur_ms, end_ms, kind, name, parent
// (roots have none), span, start_ms and trace. ok is false when the span
// holds something this encoder does not write exactly as encoding/json
// would: a non-finite number, a string that needs escaping, or an
// attribute of a type other than string, bool, int, int64, uint64 and
// float64. The caller then encodes the span through encodeLine, which
// also reports the error for values JSON cannot carry.
func appendSpanLine(b []byte, sp Span) ([]byte, bool) {
	var stack [spanAttrStack]attrKV
	attrs := stack[:0]
	//lint:allow maporder sorted by key just below, by hand so the buffer stays on the stack
	for k, v := range sp.Attrs {
		attrs = append(attrs, attrKV{k, v})
	}
	// Insertion sort: a span has a handful of attributes, and sorting a
	// local slice this way keeps the stack buffer off the heap.
	for i := 1; i < len(attrs); i++ {
		for j := i; j > 0 && attrs[j].k < attrs[j-1].k; j-- {
			attrs[j], attrs[j-1] = attrs[j-1], attrs[j]
		}
	}

	var ok bool
	b = append(b, '{')
	for _, a := range attrs {
		if !plainString(a.k) {
			return b, false
		}
		b = append(b, `"attr.`...)
		b = append(b, a.k...)
		b = append(b, `":`...)
		if b, ok = appendValue(b, a.v); !ok {
			return b, false
		}
		b = append(b, ',')
	}
	b = append(b, `"dur_ms":`...)
	if b, ok = appendFloat(b, sp.EndMs-sp.StartMs); !ok {
		return b, false
	}
	b = append(b, `,"end_ms":`...)
	if b, ok = appendFloat(b, sp.EndMs); !ok {
		return b, false
	}
	if !plainString(sp.Name) {
		return b, false
	}
	b = append(b, `,"kind":"span","name":"`...)
	b = append(b, sp.Name...)
	b = append(b, '"')
	if sp.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, uint64(sp.Parent), 10)
	}
	b = append(b, `,"span":`...)
	b = strconv.AppendUint(b, uint64(sp.ID), 10)
	b = append(b, `,"start_ms":`...)
	if b, ok = appendFloat(b, sp.StartMs); !ok {
		return b, false
	}
	b = append(b, `,"trace":`...)
	b = strconv.AppendUint(b, uint64(sp.Trace), 10)
	return append(b, "}\n"...), true
}

// appendValue appends one attribute value as encoding/json writes it;
// ok is false for the types appendSpanLine leaves to encodeLine.
func appendValue(b []byte, v interface{}) ([]byte, bool) {
	switch v := v.(type) {
	case string:
		if !plainString(v) {
			return b, false
		}
		b = append(b, '"')
		b = append(b, v...)
		return append(b, '"'), true
	case bool:
		return strconv.AppendBool(b, v), true
	case int:
		return strconv.AppendInt(b, int64(v), 10), true
	case int64:
		return strconv.AppendInt(b, v, 10), true
	case uint64:
		return strconv.AppendUint(b, v, 10), true
	case float64:
		return appendFloat(b, v)
	}
	return b, false
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' format, or 'e' format when
// |f| < 1e-6 or |f| >= 1e21, with a two-digit negative exponent
// shortened to one digit (e-07 becomes e-7). ok is false for NaN and
// ±Inf, which JSON cannot carry.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// plainString reports whether encoding/json writes s between quotes
// unchanged: printable ASCII with no '"', '\\' or the HTML-escaped
// '<', '>' and '&'.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

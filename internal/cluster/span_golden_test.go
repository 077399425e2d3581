package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"taccc/internal/obs"
)

// spanStreamGoldens pins the SHA-256 of the JSONL span stream Run writes
// in four configurations: FIFO, processor sharing, MaxQueue drops and
// half-sampled tracing. The hashes were captured when every span went
// through encodeLine(sp.Event()), so any change to how spans are encoded
// must reproduce those bytes exactly.
var spanStreamGoldens = []struct {
	name   string
	mutate func(*Config)
	sha256 string
}{
	{"fifo", func(c *Config) { c.JitterSigma = 0.3 }, "15d45e35c6b857347db2798335cb26550d140a958ff2a71be22fc3243229986b"},
	{"ps", func(c *Config) { c.Discipline = DisciplinePS }, "94ad89c9106166e3116cb81ffd24b4fa7e769f22521a3a84ece027cc68acda0f"},
	{"maxqueue-drops", func(c *Config) {
		c.ServiceRate = []float64{200, 200}
		c.MaxQueue = 2
	}, "4eda3d80c48f29908fa96941922126de6c061636a357d47f5b5da956e4faa750"},
	{"sample-half", func(c *Config) { c.TraceSampleRate = 0.5 }, "1030b4e8da76ebc163da53b729775699e2aad572468eafdf00167f8219d545a2"},
}

// spanStream runs busyConfig under mutate with its spans written through
// wrap(js) and returns the flushed stream.
func spanStream(t *testing.T, mutate func(*Config), wrap func(*obs.JSONL) obs.Sink) []byte {
	t.Helper()
	var buf bytes.Buffer
	js := obs.NewJSONL(&buf)
	cfg := busyConfig()
	mutate(&cfg)
	cfg.Spans = wrap(js)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if err := js.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSpanStreamGolden checks each configuration's span bytes against
// its pinned hash, written straight into the JSONL sink and through an
// obs.SinkFunc that hides every method but Emit (the generic event
// path). Both must give the pinned bytes.
func TestSpanStreamGolden(t *testing.T) {
	for _, g := range spanStreamGoldens {
		direct := spanStream(t, g.mutate, func(js *obs.JSONL) obs.Sink { return js })
		sum := sha256.Sum256(direct)
		if got := hex.EncodeToString(sum[:]); got != g.sha256 {
			t.Errorf("%s: span stream sha256 %s (%d bytes), want %s", g.name, got, len(direct), g.sha256)
		}
		generic := spanStream(t, g.mutate, func(js *obs.JSONL) obs.Sink { return obs.SinkFunc(js.Emit) })
		if !bytes.Equal(direct, generic) {
			t.Errorf("%s: span stream differs between the JSONL sink and its generic Emit path", g.name)
		}
	}
	drops := spanStream(t, spanStreamGoldens[2].mutate, func(js *obs.JSONL) obs.Sink { return js })
	if !bytes.Contains(drops, []byte(`"attr.outcome":"dropped"`)) {
		t.Fatal("maxqueue-drops: no dropped request traced; the configuration no longer covers drop traces")
	}
}

package treejoin_test

import (
	"strings"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

func TestUnknownMethodString(t *testing.T) {
	if s := treejoin.Method(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("Method(99) = %q", s)
	}
}

func TestMeasureExported(t *testing.T) {
	ts := synth.Synthetic(30, 3)
	s := treejoin.Measure(ts)
	if s.Trees != 30 || s.AvgSize <= 0 {
		t.Fatalf("Measure = %+v", s)
	}
}

func TestWriteBracketLinesError(t *testing.T) {
	lt := treejoin.NewLabelTable()
	ts := []*treejoin.Tree{treejoin.MustParseBracket("{a{b}}", lt)}
	if err := treejoin.WriteBracketLines(failingWriter{}, ts); err == nil {
		t.Fatal("write error not propagated")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errWrite
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }

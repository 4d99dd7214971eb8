package segstore_test

import (
	"bytes"
	"testing"

	"treejoin/internal/segstore"
	"treejoin/internal/tree"
)

// FuzzReadDataset: arbitrary bytes must never panic or over-allocate; any
// input the decoder accepts must re-encode to an equivalent collection
// (decode/encode idempotence).
func FuzzReadDataset(f *testing.F) {
	// Seed with a couple of valid encodings and near-misses.
	lt := tree.NewLabelTable()
	ts := []*tree.Tree{
		tree.MustParseBracket("{a{b}{c{d}}}", lt),
		tree.MustParseBracket("{b}", lt),
	}
	var buf bytes.Buffer
	if err := segstore.WriteDataset(&buf, lt, ts); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("TJDS"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		lt2, ts2, err := segstore.ReadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, tr := range ts2 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("decoded invalid tree %d: %v", i, err)
			}
		}
		var out bytes.Buffer
		if err := segstore.WriteDataset(&out, lt2, ts2); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		lt3, ts3, err := segstore.ReadDataset(&out)
		if err != nil {
			t.Fatalf("re-encoded form does not decode: %v", err)
		}
		if lt3.Len() != lt2.Len() || len(ts3) != len(ts2) {
			t.Fatal("decode/encode changed collection shape")
		}
		for i := range ts2 {
			if !tree.Equal(ts2[i], ts3[i]) {
				t.Fatalf("decode/encode changed tree %d", i)
			}
		}
	})
}

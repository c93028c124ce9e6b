package sink

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"wasabi/internal/analysis"
)

// replaySum counts replayed records and reads every field, so a batch
// aliasing memory past the file surfaces as a fault.
type replaySum struct {
	n, sum uint64
}

func (c *replaySum) Events(batch []analysis.Event) {
	for i := range batch {
		e := &batch[i]
		c.sum += uint64(e.Hook) + uint64(e.Aux) + e.Vals[0] + e.Vals[1] + e.Vals[2]
	}
	c.n += uint64(len(batch))
}

// FuzzSegmentOpen feeds arbitrary bytes to segment replay, seeded from the
// golden fixture and truncated or bit-flipped copies of it. Open and Serve
// may only succeed or fail with ErrCorrupt: a panic, any other error, or a
// record view reaching past the committed region fails.
func FuzzSegmentOpen(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.evlog"))
	if err != nil {
		f.Fatalf("read golden fixture: %v", err)
	}
	f.Add(golden)
	for _, n := range []int{0, 7, headerSize - 1, headerSize, headerSize + 5, len(golden) - eventSize, len(golden) - 1} {
		f.Add(golden[:n])
	}
	// One flipped bit in each header field (magic, version, record size,
	// watermark, flags, table length), in the table, and in the records.
	for _, off := range []int{0, 8, 12, 16, 20, 24, 28, headerSize, headerSize + 4, len(golden) - 1} {
		flipped := append([]byte(nil), golden...)
		flipped[off] ^= 0x80
		f.Add(flipped)
	}

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "seg.evlog")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open error %v is not ErrCorrupt", err)
			}
			return
		}
		defer r.Close()
		if r.Table() == nil {
			t.Fatal("Open succeeded without a decode table")
		}
		if end := headerSize + r.Count()*eventSize; end > uint64(len(data)) {
			t.Fatalf("%d committed records need %d bytes, the file has %d", r.Count(), end, len(data))
		}
		var c replaySum
		r.Serve(&c, 3)
		if c.n != r.Count() {
			t.Fatalf("Serve delivered %d records, Count is %d", c.n, r.Count())
		}
	})
}

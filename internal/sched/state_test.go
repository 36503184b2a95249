package sched_test

import (
	"testing"

	"dsarp/internal/dram"
	"dsarp/internal/sched"
	"dsarp/internal/snap"
	"dsarp/internal/timing"
)

// TestLoadStateBoundsCounts feeds the controller sealed snapshots whose
// list counts are hostile. Each must fail before anything is sized from
// the count; an unbounded loader would try to allocate terabytes.
func TestLoadStateBoundsCounts(t *testing.T) {
	half := sched.DefaultConfig().ReadQueueCap/2 + 1
	zeroReqs := func(w *snap.Writer, n int) {
		for i := 0; i < n; i++ {
			for j := 0; j < 11; j++ { // ID, core, rank..col, times, seq, stamp, tag
				w.U64(0)
			}
			w.Bool(false) // IsWrite
			w.Bool(false) // no completion callback
		}
	}
	for _, tc := range []struct {
		name string
		tail func(w *snap.Writer) // everything after the fixed header fields
	}{
		{"read queue buckets", func(w *snap.Writer) { w.Int(1 << 40) }},
		{"queued reads", func(w *snap.Writer) { w.Int(1); w.Int(0); w.Int(1 << 40) }},
		{"negative queued reads", func(w *snap.Writer) { w.Int(1); w.Int(0); w.Int(-1) }},
		{"reads above queue cap", func(w *snap.Writer) {
			w.Int(2)
			w.Int(0)
			w.Int(half)
			zeroReqs(w, half)
			w.Int(1)
			w.Int(half)
			zeroReqs(w, half)
		}},
		{"in-flight reads", func(w *snap.Writer) { w.Int(0); w.Int(0); w.Int(1 << 40) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev, err := dram.New(goldenGeom(), timing.DDR3(timing.Config{Density: timing.Gb8}), dram.Options{})
			if err != nil {
				t.Fatal(err)
			}
			c := sched.NewController(dev, sched.DefaultConfig(), nil)
			w := snap.NewWriter()
			w.Section("ctrl")
			// The fixed header — 7 counters and epochs, 2 flags, 13 stats —
			// all zero, so the order of the zero bytes is immaterial.
			for i := 0; i < 7+13; i++ {
				w.U64(0)
			}
			w.Bool(false)
			w.Bool(false)
			tc.tail(w)
			r, err := snap.NewReader(w.Finish())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Section("ctrl"); err != nil {
				t.Fatal(err)
			}
			if err := c.LoadState(r, nil); err == nil {
				t.Error("hostile count accepted")
			} else {
				t.Log(err)
			}
		})
	}
}

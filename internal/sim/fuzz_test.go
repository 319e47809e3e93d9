package sim

import (
	"sort"
	"testing"
)

// FuzzTieBreak is the determinism fuzzer for the ordering contract:
// arbitrary schedule sequences — heavy on same-cycle ties — must pop from
// the four-ary heap in exactly the order of a reference stable sort on
// (cycle, scheduling order). The input bytes drive event timestamps (mod a
// small range to force ties).
func FuzzTieBreak(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{9, 1, 9, 1, 9, 1, 200, 3, 17, 64, 5, 5, 5})
	f.Add([]byte{255, 254, 253, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			t.Skip()
		}
		checkStaticBatch(t, data)
	})
}

// checkStaticBatch schedules one event per input byte (timestamps mod 16,
// so ~n/16 events share each cycle) on a plain engine and compares the
// firing order against a reference stable sort.
func checkStaticBatch(t *testing.T, data []byte) {
	type entry struct {
		at  Cycle
		idx int
	}
	ref := make([]entry, len(data))
	for i, b := range data {
		ref[i] = entry{at: Cycle(b % 16), idx: i}
	}
	sort.SliceStable(ref, func(a, b int) bool { return ref[a].at < ref[b].at })

	e := New()
	got := make([]int, 0, len(data))
	for i, b := range data {
		i := i
		e.At(Cycle(b%16), func() { got = append(got, i) })
	}
	e.Run()
	for i := range ref {
		if got[i] != ref[i].idx {
			t.Fatalf("firing order diverges from reference sort at position %d: got %v, want %v", i, got, ref)
		}
	}
}

package plan

import (
	"reflect"
	"strings"
	"testing"
)

// TestDirectSendShape pins the session order the composition scheduler
// arbitrates in, which CHOPIN's composition cycles depend on: ascending
// sender, then ascending receiver.
func TestDirectSendShape(t *testing.T) {
	p, err := DirectSend(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !p.OwnerRegions || len(p.Rounds) != 1 || p.Sessions() != 12 {
		t.Fatalf("direct-send n=4: OwnerRegions=%v rounds=%d sessions=%d", p.OwnerRegions, len(p.Rounds), p.Sessions())
	}
	want := []Session{
		{0, 1, Region{0, 100}}, {0, 2, Region{0, 100}}, {0, 3, Region{0, 100}},
		{1, 0, Region{0, 100}}, {1, 2, Region{0, 100}}, {1, 3, Region{0, 100}},
		{2, 0, Region{0, 100}}, {2, 1, Region{0, 100}}, {2, 3, Region{0, 100}},
		{3, 0, Region{0, 100}}, {3, 1, Region{0, 100}}, {3, 2, Region{0, 100}},
	}
	for i, s := range p.Rounds[0] {
		if s != want[i] {
			t.Fatalf("session %d = %+v, want %+v", i, s, want[i])
		}
	}
	if err := Check(p); err != nil {
		t.Fatal(err)
	}
}

// TestPlannersCheckAllCounts validates every planner's structural invariants
// (full contribution coverage, disjoint send/receive rows per round, exact
// final tiling) at every group size 2..64 it supports.
func TestPlannersCheckAllCounts(t *testing.T) {
	const h = 97 // odd height: exercises uneven region splits
	for n := 2; n <= 64; n++ {
		if p, err := DirectSend(n, h); err != nil {
			t.Errorf("DirectSend(%d): %v", n, err)
		} else if err := Check(p); err != nil {
			t.Errorf("DirectSend(%d): %v", n, err)
		}
		pow2 := n&(n-1) == 0
		p, err := BinarySwap(n, h)
		if pow2 {
			if err != nil {
				t.Errorf("BinarySwap(%d): %v", n, err)
			} else if err := Check(p); err != nil {
				t.Errorf("BinarySwap(%d): %v", n, err)
			}
		} else if err == nil {
			t.Errorf("BinarySwap(%d): want power-of-two error", n)
		}
		if k := DefaultK(n); k != 0 {
			p, err := RadixK(n, h, k)
			if err != nil {
				t.Errorf("RadixK(%d, %d): %v", n, k, err)
			} else if err := Check(p); err != nil {
				t.Errorf("RadixK(%d, %d): %v", n, k, err)
			}
		}
	}
}

// TestBinarySwapRounds pins round count and per-round region halving, and
// that binary-swap is exactly radix-k with k=2 at every power of two.
func TestBinarySwapRounds(t *testing.T) {
	p, err := BinarySwap(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rounds) != 3 {
		t.Fatalf("binary-swap n=8 rounds = %d, want 3", len(p.Rounds))
	}
	for i, r := range p.Rounds {
		if len(r) != 8 {
			t.Errorf("round %d has %d sessions, want 8", i, len(r))
		}
		wantRows := 64 >> uint(i+1)
		for _, s := range r {
			if s.Region.Rows() != wantRows {
				t.Errorf("round %d session %+v spans %d rows, want %d", i, s, s.Region.Rows(), wantRows)
			}
		}
	}
	for g, fr := range p.Final {
		if fr.Rows() != 8 {
			t.Errorf("final region of GPU %d spans %d rows, want 8", g, fr.Rows())
		}
	}
	for n := 2; n <= 64; n *= 2 {
		bs, err := BinarySwap(n, 97)
		if err != nil {
			t.Fatal(err)
		}
		rk, err := RadixK(n, 97, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bs.Rounds, rk.Rounds) || !reflect.DeepEqual(bs.Final, rk.Final) {
			t.Errorf("n=%d: binary-swap differs from radix-2", n)
		}
	}
}

// TestRadixKRounds pins the round structure: n=64 k=8 is two rounds of
// 8-wide grouped direct-send, 64·7 sessions each.
func TestRadixKRounds(t *testing.T) {
	p, err := RadixK(64, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rounds) != 2 {
		t.Fatalf("radix-8 n=64 rounds = %d, want 2", len(p.Rounds))
	}
	for i, r := range p.Rounds {
		if len(r) != 64*7 {
			t.Errorf("round %d has %d sessions, want %d", i, len(r), 64*7)
		}
	}
	if err := Check(p); err != nil {
		t.Fatal(err)
	}
}

// TestRadixKErrors pins the planners' error contract: they return errors,
// never panic.
func TestRadixKErrors(t *testing.T) {
	if _, err := RadixK(12, 64, 4); err == nil {
		t.Error("RadixK(12, k=4): want non-power error")
	}
	if _, err := RadixK(8, 64, 1); err == nil {
		t.Error("RadixK(k=1): want radix error")
	}
	if _, err := RadixK(65, 64, 2); err == nil {
		t.Error("RadixK(65): want range error")
	}
	if _, err := DirectSend(0, 64); err == nil {
		t.Error("DirectSend(0): want range error")
	}
	if _, err := DirectSend(65, 64); err == nil {
		t.Error("DirectSend(65): want range error")
	}
	if _, err := BinarySwap(4, 0); err == nil {
		t.Error("BinarySwap(h=0): want height error")
	}
}

// TestDefaultK pins the radix ladder.
func TestDefaultK(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{2, 2}, {4, 4}, {8, 8}, {16, 4}, {32, 2}, {64, 8},
		{3, 0}, {12, 0}, {33, 0}, {48, 0},
	} {
		if k := DefaultK(tc.n); k != tc.k {
			t.Errorf("DefaultK(%d) = %d, want %d", tc.n, k, tc.k)
		}
	}
}

// TestFor covers dispatch, explicit and default-k radix resolution, and the
// unknown-algorithm error.
func TestFor(t *testing.T) {
	p, err := For(AlgRadixK, 64, 128, 0)
	if err != nil || p.Alg != AlgRadixK || len(p.Rounds) != 2 || len(p.Rounds[0]) != 64*7 {
		t.Fatalf("For(radix-k, 64, k=0) = (%+v, %v), want radix-8", p, err)
	}
	p, err = For(AlgRadixK, 9, 64, 3)
	if err != nil || len(p.Rounds) != 2 {
		t.Fatalf("For(radix-k, 9, k=3) = (%+v, %v), want two radix-3 rounds", p, err)
	}
	if _, err := For(AlgRadixK, 33, 64, 0); err == nil {
		t.Error("For(radix-k, 33, k=0): want no-default-radix error")
	}
	if _, err := For(AlgBinarySwap, 12, 64, 0); err == nil {
		t.Error("For(binary-swap, 12): want power-of-two error")
	}
	if _, err := For(Algorithm(3), 8, 64, 0); err == nil {
		t.Error("For(3): want unknown-algorithm error")
	}
}

// TestParseAlgorithm covers the flag round trip.
func TestParseAlgorithm(t *testing.T) {
	for _, a := range []Algorithm{AlgDirectSend, AlgBinarySwap, AlgRadixK} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("round trip %v: (%v, %v)", a, got, err)
		}
	}
	for _, gone := range []string{"quantum", "mixed-radix", "auto"} {
		if _, err := ParseAlgorithm(gone); err == nil || !strings.Contains(err.Error(), gone) {
			t.Errorf("ParseAlgorithm(%s) error = %v, want named error", gone, err)
		}
	}
}

// TestCheckRejectsBadPlans exercises the validator's own failure modes.
func TestCheckRejectsBadPlans(t *testing.T) {
	// A plan whose final region claims rows that never accumulated all
	// contributions.
	bad := &Plan{Alg: AlgBinarySwap, N: 2, Height: 4,
		Rounds: []Round{{{Sender: 0, Receiver: 1, Region: Region{0, 2}}}},
		Final:  []Region{{0, 2}, {2, 4}},
	}
	if err := Check(bad); err == nil {
		t.Error("Check accepted a plan with incomplete contributions")
	}
	// Self-send.
	bad2 := &Plan{Alg: AlgBinarySwap, N: 2, Height: 4,
		Rounds: []Round{{{Sender: 1, Receiver: 1, Region: Region{0, 4}}}},
		Final:  []Region{{0, 4}, {4, 4}},
	}
	if err := Check(bad2); err == nil {
		t.Error("Check accepted a self-send")
	}
	// Send/receive overlap within a round.
	bad3 := &Plan{Alg: AlgBinarySwap, N: 2, Height: 4,
		Rounds: []Round{{
			{Sender: 0, Receiver: 1, Region: Region{0, 4}},
			{Sender: 1, Receiver: 0, Region: Region{0, 4}},
		}},
		Final: []Region{{0, 4}, {4, 4}},
	}
	if err := Check(bad3); err == nil {
		t.Error("Check accepted overlapping send/receive rows in one round")
	}
}

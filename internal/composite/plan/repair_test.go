package plan

import (
	"fmt"
	"reflect"
	"testing"
)

// repairSources builds, for one GPU count, every plan shape Repair must
// handle: binary-swap (power-of-two counts), radix-k (when a default radix
// exists), and mixed-radix (always).
func repairSources(t *testing.T, n, h int) []*Plan {
	t.Helper()
	var out []*Plan
	if n&(n-1) == 0 {
		p, err := BinarySwap(n, h)
		if err != nil {
			t.Fatalf("binary-swap n=%d: %v", n, err)
		}
		out = append(out, p)
	}
	if k := DefaultK(n); k > 0 && n > 1 {
		p, err := RadixK(n, h, k)
		if err != nil {
			t.Fatalf("radix-k n=%d k=%d: %v", n, k, err)
		}
		out = append(out, p)
	}
	p, err := MixedRadix(n, h)
	if err != nil {
		t.Fatalf("mixed-radix n=%d: %v", n, err)
	}
	return append(out, p)
}

// TestRepairProperty exercises plan repair over every GPU count 2..64 ×
// {binary-swap, radix-k, mixed-radix} × every single-GPU failure: the
// repaired plan must pass Check, its final ownership map must cover the
// full screen using survivors only, and it must not depend on the source
// plan's shape. Image-level exactness of the repair is checked by
// composite's TestExchangeRepairMatchesReference.
func TestRepairProperty(t *testing.T) {
	const h = 37
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for n := 2; n <= 64; n += stride {
		srcs := repairSources(t, n, h)
		for failed := 0; failed < n; failed++ {
			live := make([]bool, n)
			for g := range live {
				live[g] = g != failed
			}
			var first *Plan
			for _, src := range srcs {
				name := fmt.Sprintf("n=%d/%s/fail=%d", n, src.Alg, failed)
				rp, err := Repair(src, live)
				if err != nil {
					t.Fatalf("%s: repair: %v", name, err)
				}
				if first == nil {
					first = rp
				} else if !reflect.DeepEqual(rp, first) {
					t.Fatalf("%s: repair differs from the %s source's", name, srcs[0].Alg)
				}
				if rp.Alg != AlgMixedRadix || rp.N != n || rp.Height != h {
					t.Fatalf("%s: repair = {alg=%s n=%d h=%d}", name, rp.Alg, rp.N, rp.Height)
				}
				if err := Check(rp); err != nil {
					t.Fatalf("%s: repaired plan fails Check: %v", name, err)
				}
				cover := make([]int, h)
				for g, fr := range rp.Final {
					if g == failed && fr.Rows() != 0 {
						t.Fatalf("%s: failed GPU still owns rows [%d,%d)", name, fr.Lo, fr.Hi)
					}
					for y := fr.Lo; y < fr.Hi; y++ {
						cover[y]++
					}
				}
				for y, c := range cover {
					if c != 1 {
						t.Fatalf("%s: screen row %d covered %d times by survivor finals", name, y, c)
					}
				}
				for ri, round := range rp.Rounds {
					for _, s := range round {
						if s.Sender == failed || s.Receiver == failed {
							t.Fatalf("%s: round %d session %d→%d touches the failed GPU", name, ri, s.Sender, s.Receiver)
						}
					}
				}
			}
		}
	}
}

// TestRepairLoneSurvivor pins the degenerate repair: one survivor, no
// exchange rounds, full-screen ownership.
func TestRepairLoneSurvivor(t *testing.T) {
	src, err := BinarySwap(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	live := []bool{false, false, true, false}
	rp, err := Repair(src, live)
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Rounds) != 0 {
		t.Fatalf("lone-survivor repair has %d rounds, want 0", len(rp.Rounds))
	}
	if rp.Final[2] != (Region{0, 100}) {
		t.Fatalf("lone survivor owns %v, want the whole screen", rp.Final[2])
	}
	if err := Check(rp); err != nil {
		t.Fatalf("lone-survivor repair fails Check: %v", err)
	}
}

// TestRepairValidation pins the error paths.
func TestRepairValidation(t *testing.T) {
	src, err := MixedRadix(6, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Repair(nil, []bool{true}); err == nil {
		t.Error("repair of nil plan did not error")
	}
	if _, err := Repair(src, []bool{true, true}); err == nil {
		t.Error("wrong-length survivor set did not error")
	}
	if _, err := Repair(src, make([]bool, 6)); err == nil {
		t.Error("empty survivor set did not error")
	}
	// A second repair may only shrink the live set.
	live := []bool{true, true, true, true, true, false}
	rp, err := Repair(src, live)
	if err != nil {
		t.Fatal(err)
	}
	back := []bool{true, true, true, true, true, true}
	if _, err := Repair(rp, back); err == nil {
		t.Error("resurrecting a dead GPU did not error")
	}
	live2 := []bool{true, false, true, true, true, false}
	rp2, err := Repair(rp, live2)
	if err != nil {
		t.Fatalf("second repair: %v", err)
	}
	if err := Check(rp2); err != nil {
		t.Fatalf("second repair fails Check: %v", err)
	}
}

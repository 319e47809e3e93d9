package main

import (
	"bytes"
	"testing"

	"chopin/internal/primitive"
	"chopin/internal/trace"
)

// testScale shrinks workloads so a test renders them in well under a
// second.
const testScale = 0.03

func encode(t *testing.T, fr *primitive.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Save(&buf, fr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSeedZeroIsTheCanonicalTrace(t *testing.T) {
	for _, name := range trace.Names() {
		f := frameSpec{bench: name, scale: testScale}
		b, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		canonical := encode(t, trace.Generate(b, testScale))
		fr, err := f.generate(0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, fr), canonical) {
			t.Errorf("%s: seed 0 differs from trace.Generate(ByName(%q))", name, name)
		}
		if fr, err = f.generate(1); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(encode(t, fr), canonical) {
			t.Errorf("%s: seed 1 reproduced the canonical trace", name)
		}
	}
}

func TestFrameOraclesPassOnAnotherSeed(t *testing.T) {
	for _, name := range []string{"frame64-ds", "frame64-bswap"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		f := w.frame
		f.scale = testScale
		for _, seed := range []int64{0, 1} {
			r, err := f.rep(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			check, err := f.oracle("..", seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := check(r); err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, err)
			}
		}
	}
}

package multigpu

import (
	"testing"

	"chopin/internal/composite/plan"
	"chopin/internal/interconnect"
)

// TestFingerprintDefaultPinned pins the default configuration's fingerprint
// to its pre-topology value. Every run record ever written keys on this
// digest; if this test fails, a Config change re-keyed the archive — route
// new fields through the explicit append in Fingerprint instead of the
// legacy mirror structs.
func TestFingerprintDefaultPinned(t *testing.T) {
	const want = "3d33a52beec72d83"
	if got := DefaultConfig().Fingerprint(); got != want {
		t.Fatalf("DefaultConfig().Fingerprint() = %s, want %s (run-record keys depend on this)", got, want)
	}
}

// TestFingerprintNewAxes checks that the scale-out axes do re-key the
// fingerprint — distinct architectures must not collide — while attachments
// still do not.
func TestFingerprintNewAxes(t *testing.T) {
	base := DefaultConfig()
	seen := map[string]string{base.Fingerprint(): "default"}
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"ring", func(c *Config) { c.Link.Topology = interconnect.TopoRing }},
		{"mesh", func(c *Config) { c.Link.Topology = interconnect.TopoMesh2D }},
		{"binary-swap", func(c *Config) { c.CompAlg = plan.AlgBinarySwap }},
		{"radix-k", func(c *Config) { c.CompAlg = plan.AlgRadixK }},
		{"radix-4", func(c *Config) { c.CompAlg = plan.AlgRadixK; c.RadixK = 4 }},
		{"binary-swap-on-ring", func(c *Config) { c.CompAlg = plan.AlgBinarySwap; c.Link.Topology = interconnect.TopoRing }},
	}
	for _, v := range variants {
		cfg := DefaultConfig()
		v.mut(&cfg)
		fp := cfg.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("variant %q collides with %q on fingerprint %s", v.name, prev, fp)
		}
		seen[fp] = v.name
	}
	// Attachments stay excluded on a scale-out config too.
	cfg := DefaultConfig()
	cfg.Link.Topology = interconnect.TopoRing
	cfg.CompAlg = plan.AlgBinarySwap
	withAtt := cfg
	withAtt.Verify = true
	withAtt.RecordPerDraw = true
	withAtt.EngineWorkers = 8
	if cfg.Fingerprint() != withAtt.Fingerprint() {
		t.Error("attachments leaked into the scale-out fingerprint")
	}
}

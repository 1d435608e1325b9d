package adversary_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dragoon/internal/group"
)

// Regenerate the committed golden fingerprints with `make golden`, or
// `go test ./internal/adversary -run TestGoldenFingerprint -update-golden`.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden fingerprint files")

// checkGolden compares got against testdata/<file>, or rewrites the file
// under -update-golden. what names the transcript in the drift message.
func checkGolden(t *testing.T, file, what, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `make golden` to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s fingerprint drifted from %s.\n"+
			"If the change is intentional (protocol, gas or rng-order change), regenerate with `make golden` and commit the diff.\n"+
			"got %d bytes, want %d bytes", what, path, len(got), len(want))
	}
}

// TestGoldenFingerprintBN254 pins the transcripts of two scenarios on the
// production BN254 G1 group, where the limb ladders, GLV split, Pippenger
// buckets and fixed-base tables all run; every other golden runs on the
// Schnorr test group. baseline-honest covers the happy path and
// out-of-range the VPKE rejection with its short-log scan.
func TestGoldenFingerprintBN254(t *testing.T) {
	t.Parallel()
	got := ""
	for _, name := range []string{"baseline-honest", "out-of-range"} {
		o := opts(0)
		o.Group = group.BN254G1()
		rep, err := scenario(t, name).RunSim(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := rep.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got += "== " + name + "\n" + fingerprint(rep)
	}
	checkGolden(t, "golden_bn254.txt", "BN254 sim", got)
}

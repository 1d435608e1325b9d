package benchwork

import (
	"bytes"
	"fmt"
	"testing"

	"dragoon/internal/elgamal"
	"dragoon/internal/poqoea"
	"dragoon/internal/vpke"
)

// encode encodes the key pair and every claim's ciphertexts, claimed
// quality and wrong-answer openings.
func encode(sk *elgamal.PrivateKey, claims ...poqoea.Claim) []byte {
	g := sk.Group
	out := append(sk.K.Bytes(), g.Marshal(sk.H)...)
	for _, c := range claims {
		out = fmt.Appendf(out, ";chi=%d;", c.Chi)
		for _, ct := range c.Cts {
			out = append(out, elgamal.MarshalCiphertext(g, ct)...)
		}
		for _, w := range c.Proof.Wrong {
			out = fmt.Appendf(out, ";wrong=%d:", w.Index)
			out = append(append(out, g.Marshal(w.Plain.Element)...), vpke.MarshalProof(g, w.Proof)...)
		}
	}
	return out
}

func proofsBytes(p *Proofs, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return append(encode(p.Key, p.Claim), vpke.MarshalProof(p.Key.Group, p.DecProof)...), nil
}

func circuitBytes(c *Circuit, err error) ([]byte, error) {
	if err == nil {
		err = c.Setup()
	}
	if err == nil {
		err = c.Prove()
	}
	if err != nil {
		return nil, err
	}
	return append(c.VK.Marshal(), c.Proof.Marshal()...), nil
}

// TestFixturesDeterministic builds each seeded fixture twice and demands
// identical bytes: keys, ciphertexts, proofs and the Groth16 setup.
func TestFixturesDeterministic(t *testing.T) {
	for name, build := range map[string]func() ([]byte, error){
		"imagenet-proofs": func() ([]byte, error) { return proofsBytes(ImageNetProofs()) },
		"wide-proofs":     func() ([]byte, error) { return proofsBytes(WideProofs()) },
		"vpke-circuit":    func() ([]byte, error) { return circuitBytes(VPKECircuit(8)) },
		"poqoea-circuit":  func() ([]byte, error) { return circuitBytes(PoQoEACircuit(8)) },
	} {
		t.Run(name, func(t *testing.T) {
			a, err := build()
			if err != nil {
				t.Fatal(err)
			}
			b, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("two builds differ")
			}
		})
	}
}

// TestClaimsPrefix checks that a smaller claim set, built on its own, is a
// byte-identical prefix of a larger one under the same key: the batch
// benchmarks slice one set for every batch size.
func TestClaimsPrefix(t *testing.T) {
	skSmall, small, err := Claims(2)
	if err != nil {
		t.Fatal(err)
	}
	skLarge, large, err := Claims(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 2 || len(large) != 5 {
		t.Fatalf("got %d and %d claims, want 2 and 5", len(small), len(large))
	}
	if !bytes.Equal(encode(skSmall, small...), encode(skLarge, large[:2]...)) {
		t.Fatal("Claims(2) is not a prefix of Claims(5)")
	}
}

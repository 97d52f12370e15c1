package trust

import (
	"bytes"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/topology"
)

func demoInfra(t *testing.T, mode Mode) (*Infra, *topology.Graph) {
	t.Helper()
	g := topology.Demo()
	inf, err := NewInfra(g, mode)
	if err != nil {
		t.Fatal(err)
	}
	return inf, g
}

func TestSizedSignerRoundTrip(t *testing.T) {
	inf, g := demoInfra(t, Sized)
	ia := g.IAs()[0]
	s := inf.SignerFor(ia)
	if s == nil || s.IA() != ia {
		t.Fatal("missing signer")
	}
	msg := []byte("a path segment")
	sig, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != SignatureLen {
		t.Fatalf("sig len = %d, want %d", len(sig), SignatureLen)
	}
	if err := inf.Verify(ia, msg, sig); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestSizedSignerDeterministic(t *testing.T) {
	inf, g := demoInfra(t, Sized)
	ia := g.IAs()[0]
	s := inf.SignerFor(ia)
	a, _ := s.Sign([]byte("x"))
	b, _ := s.Sign([]byte("x"))
	if !bytes.Equal(a, b) {
		t.Error("sized signatures must be deterministic")
	}
	c, _ := s.Sign([]byte("y"))
	if bytes.Equal(a, c) {
		t.Error("different messages must give different signatures")
	}
}

func TestSizedVerifyRejects(t *testing.T) {
	inf, g := demoInfra(t, Sized)
	ias := g.IAs()
	s := inf.SignerFor(ias[0])
	msg := []byte("msg")
	sig, _ := s.Sign(msg)

	if err := inf.Verify(ias[0], []byte("other"), sig); err == nil {
		t.Error("tampered message must fail")
	}
	if err := inf.Verify(ias[1], msg, sig); err == nil {
		t.Error("wrong signer must fail")
	}
	if err := inf.Verify(ias[0], msg, sig[:10]); err == nil {
		t.Error("truncated signature must fail")
	}
	mut := append([]byte(nil), sig...)
	mut[0] ^= 1
	if err := inf.Verify(ias[0], msg, mut); err == nil {
		t.Error("flipped bit must fail")
	}
	if err := inf.Verify(addr.MustIA(99, 99), msg, sig); err == nil {
		t.Error("unknown AS must fail")
	}
}

func TestECDSASignVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("ECDSA keygen in -short mode")
	}
	g := topology.New()
	a := addr.MustIA(1, 1)
	b := addr.MustIA(1, 2)
	g.AddAS(a, true)
	g.AddAS(b, false)
	g.MustConnect(a, b, topology.ProviderOf)
	inf, err := NewInfra(g, ECDSA)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("pcb body")
	sig, err := inf.SignerFor(a).Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != SignatureLen {
		t.Fatalf("sig len = %d", len(sig))
	}
	if err := inf.Verify(a, msg, sig); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := inf.Verify(a, []byte("tampered"), sig); err == nil {
		t.Error("tampered message must fail")
	}
	if err := inf.Verify(b, msg, sig); err == nil {
		t.Error("wrong key must fail")
	}
	// Certificate chain for the non-core AS verifies.
	cert := inf.certs[b]
	if cert == nil {
		t.Fatal("no certificate for leaf AS")
	}
	if err := inf.VerifyChain(cert); err != nil {
		t.Fatalf("chain: %v", err)
	}
}

func TestTRCStructure(t *testing.T) {
	inf, g := demoInfra(t, Sized)
	for isd := addr.ISD(1); isd <= 3; isd++ {
		trc := inf.trcs[isd]
		if trc == nil {
			t.Fatalf("no TRC for ISD %d", isd)
		}
		if trc.Version != 1 {
			t.Errorf("TRC version = %d", trc.Version)
		}
		for _, c := range trc.Cores {
			if !g.AS(c).Core {
				t.Errorf("TRC of ISD %d lists non-core %s", isd, c)
			}
			if c.ISD != isd {
				t.Errorf("TRC of ISD %d lists foreign AS %s", isd, c)
			}
		}
	}
	if inf.trcs[99] != nil {
		t.Error("unknown ISD must have nil TRC")
	}
}

func TestCertificateIssuance(t *testing.T) {
	inf, g := demoInfra(t, Sized)
	for _, ia := range g.IAs() {
		cert := inf.certs[ia]
		if g.AS(ia).Core {
			if cert != nil {
				t.Errorf("core AS %s must not have a leaf certificate", ia)
			}
			continue
		}
		if cert == nil {
			t.Fatalf("no certificate for %s", ia)
		}
		if cert.Subject != ia || cert.Issuer.ISD != ia.ISD {
			t.Errorf("bad cert binding: %+v", cert)
		}
		if err := inf.VerifyChain(cert); err != nil {
			t.Errorf("chain for %s: %v", ia, err)
		}
	}
}

func TestVerifyChainRejects(t *testing.T) {
	inf, g := demoInfra(t, Sized)
	var leaf addr.IA
	for _, ia := range g.IAs() {
		if !g.AS(ia).Core {
			leaf = ia
			break
		}
	}
	cert := *inf.certs[leaf]
	cert.Issuer = leaf // non-core issuer
	if err := inf.VerifyChain(&cert); err == nil {
		t.Error("non-core issuer must fail")
	}
	cert2 := *inf.certs[leaf]
	cert2.Signature = append([]byte(nil), cert2.Signature...)
	cert2.Signature[3] ^= 0xff
	if err := inf.VerifyChain(&cert2); err == nil {
		t.Error("tampered signature must fail")
	}
	if err := inf.VerifyChain(nil); err == nil {
		t.Error("nil cert must fail")
	}
	cert3 := *inf.certs[leaf]
	cert3.Subject.ISD = 77
	if err := inf.VerifyChain(&cert3); err == nil {
		t.Error("unknown ISD must fail")
	}
}

func TestInfraRequiresCorePerISD(t *testing.T) {
	g := topology.New()
	g.AddAS(addr.MustIA(5, 1), false) // ISD with no core
	if _, err := NewInfra(g, Sized); err == nil {
		t.Error("ISD without core AS must fail Infra construction")
	}
}

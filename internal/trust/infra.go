package trust

import (
	"crypto/ecdsa"
	"crypto/sha512"
	"encoding/binary"
	"fmt"
	"math/big"
	"sort"

	"scionmpr/internal/addr"
	"scionmpr/internal/topology"
)

// TRC is an ISD's Trust Root Configuration: the versioned list of core
// ASes whose keys anchor all certificate chains of the ISD (paper §2.1).
type TRC struct {
	ISD     addr.ISD
	Version uint32
	Cores   []addr.IA
}

// HasCore reports whether ia is a trust-root core AS of this TRC.
func (t *TRC) HasCore(ia addr.IA) bool {
	for _, c := range t.Cores {
		if c == ia {
			return true
		}
	}
	return false
}

// Certificate binds an AS to its key material, issued and signed by a
// core AS of its ISD. In sized mode the public key is elided but the
// certificate retains its realistic wire size for overhead accounting.
type Certificate struct {
	Subject   addr.IA
	Issuer    addr.IA
	PublicKey *ecdsa.PublicKey // nil in sized mode
	Signature []byte
}

// certBody serializes the signed portion of a certificate.
func certBody(subject, issuer addr.IA, pub *ecdsa.PublicKey) []byte {
	buf := make([]byte, 16, 16+97)
	binary.BigEndian.PutUint64(buf[0:8], subject.Uint64())
	binary.BigEndian.PutUint64(buf[8:16], issuer.Uint64())
	if pub != nil {
		buf = append(buf, pub.X.Bytes()...)
		buf = append(buf, pub.Y.Bytes()...)
	}
	return buf
}

// Mode selects the signature implementation of an Infra.
type Mode int

const (
	// Sized uses deterministic fixed-size pseudo-signatures (fast,
	// correct wire sizes) — the default for Internet-scale simulation.
	Sized Mode = iota
	// ECDSA uses real P-384 keys and signatures.
	ECDSA
)

// Infra is the simulation-wide key and certificate registry: it holds one
// signer per AS, the TRC of every ISD, and the issued AS certificates,
// and acts as the Verifier for all control-plane messages.
type Infra struct {
	mode    Mode
	signers map[addr.IA]Signer
	secrets map[addr.IA][]byte // sized mode
	fwdKeys map[addr.IA][]byte // derived once; read per hop-field MAC
	pubs    map[addr.IA]*ecdsa.PublicKey
	trcs    map[addr.ISD]*TRC
	certs   map[addr.IA]*Certificate
}

// NewInfra builds the key material for every AS in topo: a TRC per ISD
// listing that ISD's core ASes, one signer per AS, and an AS certificate
// for every non-core AS issued by the lowest-numbered core AS of its ISD.
func NewInfra(topo *topology.Graph, mode Mode) (*Infra, error) {
	inf := &Infra{
		mode:    mode,
		signers: map[addr.IA]Signer{},
		secrets: map[addr.IA][]byte{},
		fwdKeys: map[addr.IA][]byte{},
		pubs:    map[addr.IA]*ecdsa.PublicKey{},
		trcs:    map[addr.ISD]*TRC{},
		certs:   map[addr.IA]*Certificate{},
	}
	for _, ia := range topo.IAs() {
		if err := inf.addAS(ia); err != nil {
			return nil, err
		}
		if topo.AS(ia).Core {
			trc := inf.trcs[ia.ISD]
			if trc == nil {
				trc = &TRC{ISD: ia.ISD, Version: 1}
				inf.trcs[ia.ISD] = trc
			}
			trc.Cores = append(trc.Cores, ia)
		}
	}
	for _, trc := range inf.trcs {
		sort.Slice(trc.Cores, func(i, j int) bool { return trc.Cores[i].Less(trc.Cores[j]) })
	}
	// Issue certificates for non-core ASes.
	for _, ia := range topo.IAs() {
		if topo.AS(ia).Core {
			continue
		}
		trc := inf.trcs[ia.ISD]
		if trc == nil || len(trc.Cores) == 0 {
			return nil, fmt.Errorf("trust: ISD %d of %s has no core AS to issue certificates", ia.ISD, ia)
		}
		if err := inf.issue(ia, trc.Cores[0]); err != nil {
			return nil, err
		}
	}
	return inf, nil
}

func (inf *Infra) addAS(ia addr.IA) error {
	// Derived once here: border routers read this key on every hop-field
	// MAC, which dominates the data-plane hot path under load.
	var kb [40]byte
	fh := sha512.Sum384(ia.AppendFormat(append(kb[:0], "scionmpr-fwd-"...)))
	inf.fwdKeys[ia] = fh[:32]
	switch inf.mode {
	case ECDSA:
		s, err := NewECDSASigner(ia)
		if err != nil {
			return err
		}
		inf.signers[ia] = s
		inf.pubs[ia] = s.Public()
	default:
		// Per-AS secret derived from the IA; deterministic across runs.
		h := sha512.Sum384(ia.AppendFormat(append(kb[:0], "scionmpr-sized-"...)))
		secret := h[:]
		inf.secrets[ia] = secret
		inf.signers[ia] = &SizedSigner{ia: ia, secret: secret}
	}
	return nil
}

func (inf *Infra) issue(subject, issuer addr.IA) error {
	body := certBody(subject, issuer, inf.pubs[subject])
	sig, err := inf.signers[issuer].Sign(body)
	if err != nil {
		return err
	}
	inf.certs[subject] = &Certificate{
		Subject:   subject,
		Issuer:    issuer,
		PublicKey: inf.pubs[subject],
		Signature: sig,
	}
	return nil
}

// SignerFor returns the signer of ia, or nil if unknown.
func (inf *Infra) SignerFor(ia addr.IA) Signer { return inf.signers[ia] }

// ForwardingKey returns the AS-local symmetric key an AS uses to MAC its
// hop fields (packet-carried forwarding state). Border routers of the AS
// share this key; it never leaves the AS. Returns nil for unknown ASes.
func (inf *Infra) ForwardingKey(ia addr.IA) []byte {
	return inf.fwdKeys[ia]
}

// Verify implements Verifier against the registry's key material.
func (inf *Infra) Verify(ia addr.IA, msg, sig []byte) error {
	if len(sig) != SignatureLen {
		return fmt.Errorf("%w: %d", ErrBadLength, len(sig))
	}
	switch inf.mode {
	case ECDSA:
		pub := inf.pubs[ia]
		if pub == nil {
			return fmt.Errorf("%w: %s", ErrUnknownSigner, ia)
		}
		h := sha512.Sum384(msg)
		if !verifyFixed(pub, h[:], sig) {
			return fmt.Errorf("%w: %s", ErrBadSignature, ia)
		}
		return nil
	default:
		secret := inf.secrets[ia]
		if secret == nil {
			return fmt.Errorf("%w: %s", ErrUnknownSigner, ia)
		}
		want := sizedMAC(secret, msg)
		for i := range want {
			if want[i] != sig[i] {
				return fmt.Errorf("%w: %s", ErrBadSignature, ia)
			}
		}
		return nil
	}
}

// VerifyChain verifies that an AS certificate was issued and signed by a
// core AS present in the subject ISD's TRC — the trust anchor chain an
// endpoint walks before accepting path segments.
func (inf *Infra) VerifyChain(cert *Certificate) error {
	if cert == nil {
		return fmt.Errorf("%w: nil certificate", ErrUnknownSigner)
	}
	trc := inf.trcs[cert.Subject.ISD]
	if trc == nil {
		return fmt.Errorf("trust: no TRC for ISD %d", cert.Subject.ISD)
	}
	if !trc.HasCore(cert.Issuer) {
		return fmt.Errorf("trust: issuer %s not a core AS of ISD %d", cert.Issuer, cert.Subject.ISD)
	}
	body := certBody(cert.Subject, cert.Issuer, cert.PublicKey)
	return inf.Verify(cert.Issuer, body, cert.Signature)
}

func verifyFixed(pub *ecdsa.PublicKey, digest, sig []byte) bool {
	if len(sig) != SignatureLen {
		return false
	}
	r := new(big.Int).SetBytes(sig[:48])
	s := new(big.Int).SetBytes(sig[48:])
	return ecdsa.Verify(pub, digest, r, s)
}

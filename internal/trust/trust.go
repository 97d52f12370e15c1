// Package trust implements the SCION control-plane PKI needed for
// beaconing: per-ISD Trust Root Configurations (TRCs) listing the core
// ASes and their public keys, AS certificates issued by core ASes, and
// message signing/verification.
//
// Two signer implementations are provided. ECDSA P-384 (the algorithm the
// paper assumes for both SCION and BGPsec overhead, §5.2) is used for
// correctness tests and small scenarios. For Internet-scale simulations,
// SizedSigner produces deterministic signatures with the identical wire
// size (96-byte fixed-width r||s), so overhead measurements are
// unaffected. It is much cheaper than ECDSA but not free: it hashes every
// signed PCB with HMAC-SHA256, which takes a fifth to a quarter of the
// CPU of baseline core beaconing (22–28 % in profiles of one-worker, 2 h,
// 300-AS/40-core runs) and 17 % of the Figure 5 experiment.
package trust

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/sha512"
	"errors"
	"fmt"
	"hash"

	"scionmpr/internal/addr"
)

// SignatureLen is the wire size of a signature: fixed-width r||s for
// ECDSA P-384 (two 48-byte scalars).
const SignatureLen = 96

// Signer signs control-plane messages on behalf of one AS.
type Signer interface {
	// IA is the AS this signer signs for.
	IA() addr.IA
	// Sign returns a SignatureLen-byte signature over msg.
	Sign(msg []byte) ([]byte, error)
}

// AppendSigner is implemented by signers that can append the signature to
// a caller-provided buffer. Beaconing signs one message per extension;
// reusing recycled signature buffers keeps the steady-state hot path off
// the allocator entirely.
type AppendSigner interface {
	Signer
	// AppendSign appends a SignatureLen-byte signature over msg to dst
	// and returns the extended buffer.
	AppendSign(dst, msg []byte) ([]byte, error)
}

// Verifier checks a signature allegedly produced by ia over msg.
type Verifier interface {
	Verify(ia addr.IA, msg, sig []byte) error
}

// Errors returned by verification.
var (
	ErrBadSignature  = errors.New("trust: signature verification failed")
	ErrUnknownSigner = errors.New("trust: no key material for signer")
	ErrBadLength     = errors.New("trust: wrong signature length")
)

// ECDSASigner signs with a real ECDSA P-384 private key.
type ECDSASigner struct {
	ia  addr.IA
	key *ecdsa.PrivateKey
}

// NewECDSASigner generates a fresh P-384 key pair for ia.
func NewECDSASigner(ia addr.IA) (*ECDSASigner, error) {
	key, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("trust: generating key for %s: %w", ia, err)
	}
	return &ECDSASigner{ia: ia, key: key}, nil
}

// IA implements Signer.
func (s *ECDSASigner) IA() addr.IA { return s.ia }

// Public returns the signer's public key for certificate issuance.
func (s *ECDSASigner) Public() *ecdsa.PublicKey { return &s.key.PublicKey }

// Sign implements Signer with fixed-width r||s encoding.
func (s *ECDSASigner) Sign(msg []byte) ([]byte, error) {
	h := sha512.Sum384(msg)
	r, ss, err := ecdsa.Sign(rand.Reader, s.key, h[:])
	if err != nil {
		return nil, fmt.Errorf("trust: signing for %s: %w", s.ia, err)
	}
	out := make([]byte, SignatureLen)
	r.FillBytes(out[:48])
	ss.FillBytes(out[48:])
	return out, nil
}

// SizedSigner produces deterministic HMAC-based pseudo-signatures of the
// exact ECDSA P-384 wire size. Verification recomputes the MAC with the
// per-AS secret held by the verifying Infra — sound inside a simulation
// where the Infra is the trusted key registry.
//
// A signer caches its keyed HMAC state across Sign calls. It is owned by
// exactly one AS's control-plane actor and therefore needs no locking,
// even when the simulator runs actors in parallel.
type SizedSigner struct {
	ia     addr.IA
	secret []byte
	mac    hash.Hash
	// block is the MAC expansion scratch. Passing a local array into the
	// hash.Hash interface makes it escape, costing one heap allocation
	// per signature; keeping it on the signer (single-owner, see above)
	// keeps AppendSign allocation-free.
	block [sha256.Size + 1]byte
}

// IA implements Signer.
func (s *SizedSigner) IA() addr.IA { return s.ia }

// Sign implements Signer.
func (s *SizedSigner) Sign(msg []byte) ([]byte, error) {
	if s.mac == nil {
		s.mac = hmac.New(sha256.New, s.secret)
	}
	return appendSizedMACTo(make([]byte, 0, SignatureLen), s.mac, msg, &s.block), nil
}

// AppendSign implements AppendSigner, writing the signature into dst's
// spare capacity when it has any.
func (s *SizedSigner) AppendSign(dst, msg []byte) ([]byte, error) {
	if s.mac == nil {
		s.mac = hmac.New(sha256.New, s.secret)
	}
	return appendSizedMACTo(dst, s.mac, msg, &s.block), nil
}

// sizedMAC is the stateless form used by verification, which may run
// concurrently against a shared Infra.
func sizedMAC(secret, msg []byte) []byte {
	var block [sha256.Size + 1]byte
	return appendSizedMACTo(make([]byte, 0, SignatureLen), hmac.New(sha256.New, secret), msg, &block)
}

// appendSizedMACTo expands the keyed MAC to SignatureLen bytes appended
// to dst: one keyed pass over the message yields a pseudorandom key,
// expanded HKDF-style with short fixed-size hashes. Signing therefore
// traverses msg exactly once however many output blocks SignatureLen
// requires — beacon bodies grow with the hop count, and this sits on the
// Extend hot path.
func appendSizedMACTo(dst []byte, m hash.Hash, msg []byte, block *[sha256.Size + 1]byte) []byte {
	m.Reset()
	m.Write(msg)
	m.Sum(block[:0])
	base := len(dst)
	for i := 0; len(dst)-base < SignatureLen; i++ {
		block[sha256.Size] = byte(i)
		sum := sha256.Sum256(block[:])
		dst = append(dst, sum[:]...)
	}
	return dst[:base+SignatureLen]
}

// Package addr defines SCION control-plane addressing: Isolation Domain
// (ISD) identifiers, 48-bit AS numbers, the combined ISD-AS (IA) tuple used
// for inter-domain routing, and the <ISD, AS, local address> host 3-tuple.
//
// SCION routing is based on the <ISD, AS> pair and is agnostic of local
// addressing: the local part never appears in inter-domain forwarding state
// and may be an IPv4, IPv6, or MAC address (paper §2.1).
package addr

import (
	"fmt"
	"strconv"
	"strings"
)

// ISD is an Isolation Domain identifier. ISDs group ASes that agree on a
// common Trust Root Configuration; the zero value means "unspecified".
type ISD uint16

// AS is a SCION AS number. SCION inherits today's 32-bit BGP AS numbers and
// extends the namespace to 48 bits for SCION-only allocations (paper §2.1).
type AS uint64

// MaxAS is the largest representable SCION AS number (48 bits).
const MaxAS AS = (1 << 48) - 1

// MaxBGPAS is the largest AS number inherited from the current Internet.
const MaxBGPAS AS = (1 << 32) - 1

// Valid reports whether a fits in the 48-bit SCION AS number space.
func (a AS) Valid() bool { return a <= MaxAS }

// Inherited reports whether a lies in the 32-bit BGP-compatible range.
func (a AS) Inherited() bool { return a <= MaxBGPAS }

// String renders the AS number. BGP-inherited numbers print in decimal;
// SCION-allocated numbers print in the canonical colon-separated 16-bit
// hex-group notation (e.g. "ff00:0:110").
func (a AS) String() string {
	if a.Inherited() {
		return strconv.FormatUint(uint64(a), 10)
	}
	var buf [14]byte
	return string(a.appendFormat(buf[:0]))
}

func (a AS) appendFormat(b []byte) []byte {
	if a.Inherited() {
		return strconv.AppendUint(b, uint64(a), 10)
	}
	b = strconv.AppendUint(b, uint64(uint16(a>>32)), 16)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(uint16(a>>16)), 16)
	b = append(b, ':')
	return strconv.AppendUint(b, uint64(uint16(a)), 16)
}

// ParseAS parses either a decimal BGP AS number or the colon-separated
// SCION notation produced by AS.String.
func ParseAS(s string) (AS, error) {
	if !strings.Contains(s, ":") {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("addr: parsing AS %q: %w", s, err)
		}
		if AS(v) > MaxAS {
			return 0, fmt.Errorf("addr: AS %q exceeds 48-bit space", s)
		}
		return AS(v), nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, fmt.Errorf("addr: AS %q: want 3 hex groups", s)
	}
	var v uint64
	for _, p := range parts {
		g, err := strconv.ParseUint(p, 16, 16)
		if err != nil {
			return 0, fmt.Errorf("addr: parsing AS %q: %w", s, err)
		}
		v = v<<16 | g
	}
	return AS(v), nil
}

// IA is the <ISD, AS> tuple that identifies an AS globally. It is the unit
// of inter-domain routing in SCION.
type IA struct {
	ISD ISD
	AS  AS
}

// MustIA builds an IA and panics on an invalid AS number. It is intended
// for tests and static topology definitions.
func MustIA(isd ISD, as AS) IA {
	if !as.Valid() {
		panic(fmt.Sprintf("addr: invalid AS %d", uint64(as)))
	}
	return IA{ISD: isd, AS: as}
}

// IsZero reports whether ia is the zero (unspecified) IA.
func (ia IA) IsZero() bool { return ia.ISD == 0 && ia.AS == 0 }

// String renders the canonical "isd-as" notation. Hand-rolled rather
// than fmt-based: IA.String sits under beaconing's hop-key construction,
// where fmt's boxing tripled the allocation count.
func (ia IA) String() string {
	var buf [20]byte
	return string(ia.AppendFormat(buf[:0]))
}

// AppendFormat appends the canonical "isd-as" text to b.
func (ia IA) AppendFormat(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(ia.ISD), 10)
	b = append(b, '-')
	return ia.AS.appendFormat(b)
}

// ParseIA parses the canonical "isd-as" notation.
func ParseIA(s string) (IA, error) {
	isdStr, asStr, ok := strings.Cut(s, "-")
	if !ok {
		return IA{}, fmt.Errorf("addr: IA %q: want isd-as", s)
	}
	isd, err := strconv.ParseUint(isdStr, 10, 16)
	if err != nil {
		return IA{}, fmt.Errorf("addr: parsing ISD in %q: %w", s, err)
	}
	as, err := ParseAS(asStr)
	if err != nil {
		return IA{}, err
	}
	return IA{ISD: ISD(isd), AS: as}, nil
}

// Uint64 packs the IA into a single comparable 64-bit key:
// 16 bits of ISD followed by 48 bits of AS.
func (ia IA) Uint64() uint64 { return uint64(ia.ISD)<<48 | uint64(ia.AS) }

// IAFromUint64 is the inverse of IA.Uint64.
func IAFromUint64(v uint64) IA {
	return IA{ISD: ISD(v >> 48), AS: AS(v & uint64(MaxAS))}
}

// Less orders IAs by ISD, then AS. Useful for deterministic iteration.
func (ia IA) Less(o IA) bool { return ia.Uint64() < o.Uint64() }

// IfID identifies one end of an inter-domain link within an AS. Interface
// identifiers are AS-local; the pair (IA, IfID) is globally unique. A path
// segment is described at the granularity of these interfaces (paper §2.2).
type IfID uint16

func (i IfID) String() string { return strconv.FormatUint(uint64(i), 10) }

// HostAddrType enumerates the local address families a SCION host address
// can carry. The local address is opaque to inter-domain routing.
type HostAddrType uint8

const (
	HostNone HostAddrType = iota
	HostIPv4
	HostIPv6
	HostMAC
	HostService // anycast control-service address
)

func (t HostAddrType) String() string {
	switch t {
	case HostNone:
		return "none"
	case HostIPv4:
		return "ipv4"
	case HostIPv6:
		return "ipv6"
	case HostMAC:
		return "mac"
	case HostService:
		return "svc"
	}
	return fmt.Sprintf("hostaddrtype(%d)", uint8(t))
}

// Len returns the wire length in bytes of an address of type t.
func (t HostAddrType) Len() int {
	switch t {
	case HostIPv4:
		return 4
	case HostIPv6:
		return 16
	case HostMAC:
		return 6
	case HostService:
		return 2
	}
	return 0
}

// Host is the <ISD, AS, local address> 3-tuple identifying an endpoint.
type Host struct {
	IA    IA
	Type  HostAddrType
	Local []byte
}

// HostIP4 builds an IPv4 host address.
func HostIP4(ia IA, a, b, c, d byte) Host {
	return Host{IA: ia, Type: HostIPv4, Local: []byte{a, b, c, d}}
}

// FlowHost is the address of traffic flow id's endpoint in ia. Flow
// addresses come from the shared address space 100.64.0.0/10, which holds
// every 20-bit wire FlowID and which no attached host may take, so a
// flow's packets and SCMP never reach a host.
func FlowHost(ia IA, id int) Host {
	return HostIP4(ia, 100, 64|byte(id>>16)&0x3f, byte(id>>8), byte(id))
}

// IsFlowHost reports whether h lies in the flow address block.
func (h Host) IsFlowHost() bool {
	return h.Type == HostIPv4 && len(h.Local) == 4 && h.Local[0] == 100 && h.Local[1]&0xc0 == 64
}

// HostSvc builds a service (anycast) address, used to reach control
// services such as the beacon or path server of an AS.
func HostSvc(ia IA, svc uint16) Host {
	return Host{IA: ia, Type: HostService, Local: []byte{byte(svc >> 8), byte(svc)}}
}

// Well-known service addresses.
const (
	SvcCS uint16 = 1 // control service (beacon + path server)
	SvcBR uint16 = 2 // border-router management endpoint
	SvcSG uint16 = 3 // SCION-IP gateway
)

func (h Host) String() string {
	switch h.Type {
	case HostIPv4:
		if len(h.Local) == 4 {
			return fmt.Sprintf("%s,%d.%d.%d.%d", h.IA, h.Local[0], h.Local[1], h.Local[2], h.Local[3])
		}
	case HostService:
		if len(h.Local) == 2 {
			return fmt.Sprintf("%s,svc:%d", h.IA, uint16(h.Local[0])<<8|uint16(h.Local[1]))
		}
	}
	return fmt.Sprintf("%s,%s:%x", h.IA, h.Type, h.Local)
}

// Equal reports address equality including the local part.
func (h Host) Equal(o Host) bool {
	if h.IA != o.IA || h.Type != o.Type || len(h.Local) != len(o.Local) {
		return false
	}
	for i := range h.Local {
		if h.Local[i] != o.Local[i] {
			return false
		}
	}
	return true
}

package scion

import (
	"encoding/binary"
	"fmt"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/pathdb"
	"scionmpr/internal/seg"
	"scionmpr/internal/wire"
)

// Remote path-segment lookup: the paper describes down- and core-segment
// lookups as unicast operations to the origin AS's path server, riding
// regular forwarding paths (§2.2, §4.1). This file implements that wire
// protocol on top of the data plane: requests and replies travel as SCION
// packets addressed to the control service, and the caller observes the
// exact byte cost the paper's Table 1 accounts for.

// Control-service message kinds (first payload byte).
const (
	msgSegRequest = 0x01
	msgSegReply   = 0x02
)

// encodeRequest frames a pathdb.Request for the wire.
func encodeRequest(req pathdb.Request) []byte {
	out := make([]byte, 2+8)
	out[0] = msgSegRequest
	out[1] = byte(req.Type)
	binary.BigEndian.PutUint64(out[2:], req.Dst.Uint64())
	return out
}

func decodeRequest(b []byte) (pathdb.Request, error) {
	r := wire.NewReader("scion: segment request", b)
	if tag := r.U8(); tag != msgSegRequest {
		r.Failf("has tag %#x", tag)
	}
	req := pathdb.Request{Type: pathdb.SegType(r.U8()), Dst: addr.IAFromUint64(r.U64())}
	if err := r.Done(); err != nil {
		return pathdb.Request{}, err
	}
	return req, nil
}

// encodeReplyFrame frames one page of a (possibly paginated) reply:
// tag, frame index, frame count, segment count, then length-prefixed
// segments.
func encodeReplyFrame(idx, total byte, segs []*seg.PCB) []byte {
	out := []byte{msgSegReply, idx, total}
	var n [2]byte
	binary.BigEndian.PutUint16(n[:], uint16(len(segs)))
	out = append(out, n[:]...)
	for _, s := range segs {
		b := s.Encode()
		binary.BigEndian.PutUint16(n[:], uint16(len(b)))
		out = append(out, n[:]...)
		out = append(out, b...)
	}
	return out
}

// encodeReply is the single-frame convenience used by tests.
func encodeReply(segs []*seg.PCB) []byte { return encodeReplyFrame(0, 1, segs) }

// decodeReplyFrame parses one page, returning its segments plus the
// frame index and total frame count.
func decodeReplyFrame(b []byte) ([]*seg.PCB, byte, byte, error) {
	r := wire.NewReader("scion: segment reply", b)
	if tag := r.U8(); tag != msgSegReply {
		r.Failf("has tag %#x", tag)
	}
	idx, total := r.U8(), r.U8()
	var segs []*seg.PCB
	for i, n := 0, r.Count(uint32(r.U16()), 2); i < n && r.Err() == nil; i++ {
		segs = append(segs, seg.Read(&r, int(r.U16())))
	}
	if err := r.Done(); err != nil {
		return nil, 0, 0, err
	}
	return segs, idx, total, nil
}

func decodeReply(b []byte) ([]*seg.PCB, error) {
	segs, _, total, err := decodeReplyFrame(b)
	if err == nil && total != 1 {
		return nil, fmt.Errorf("scion: multi-frame reply in single-frame decode")
	}
	return segs, err
}

// controlService answers segment requests arriving at an AS's control
// service address by querying the local path server and replying over the
// reversed forwarding path.
func (n *Network) controlService(ia addr.IA, pkt *dataplane.Packet) {
	req, err := decodeRequest(pkt.Payload)
	if err != nil {
		return
	}
	ps := n.pathServers[ia]
	if ps == nil {
		return
	}
	now := n.intraRun.End
	var segs []*seg.PCB
	switch req.Type {
	case pathdb.Down:
		segs = ps.LookupDown(now, req.Dst)
	case pathdb.Core:
		segs = ps.LookupCore(now, req.Dst)
	case pathdb.Up:
		segs = ps.LookupUp(now)
	}
	rev, err := pkt.Path.Reverse(n.Infra.ForwardingKey)
	if err != nil {
		return
	}
	// Replies larger than the path MTU are paginated: each frame carries
	// as many whole segments as fit (real path servers paginate segment
	// replies the same way).
	budget := 1200 // conservative payload budget under the default MTU
	var frames [][]*seg.PCB
	var cur []*seg.PCB
	curBytes := 0
	for _, sg := range segs {
		w := sg.WireLen() + 2
		if curBytes > 0 && curBytes+w > budget {
			frames = append(frames, cur)
			cur, curBytes = nil, 0
		}
		cur = append(cur, sg)
		curBytes += w
	}
	frames = append(frames, cur) // cur may be empty: an empty reply is one frame
	total := byte(len(frames))
	for i, frame := range frames {
		reply := &dataplane.Packet{
			Src:     addr.HostSvc(ia, addr.SvcCS),
			Dst:     pkt.Src,
			Path:    rev,
			Payload: encodeReplyFrame(byte(i), total, frame),
		}
		_ = n.fabric.Inject(reply)
	}
}

// LookupResult is the outcome of a remote segment lookup.
type LookupResult struct {
	Segments []*seg.PCB
	// RequestBytes and ReplyBytes are the on-wire packet sizes, the
	// Table 1 observables for the lookup components.
	RequestBytes, ReplyBytes int
	// RTT is the virtual round-trip time of the query.
	RTT int64 // nanoseconds of virtual time
}

// RemoteLookup sends a segment request from an AS to another AS's path
// server over a real forwarding path and waits (in virtual time) for the
// reply. It demonstrates and measures the paper's pull-based path-server
// infrastructure: lookups are unicast, amortized by data traffic, and
// independent of global broadcast.
func (n *Network) RemoteLookup(from, server addr.IA, req pathdb.Request) (*LookupResult, error) {
	if from == server {
		// Local lookup (endpoint path lookup): intra-AS, no SCION hop.
		ps := n.pathServers[server]
		if ps == nil {
			return nil, fmt.Errorf("scion: no path server at %s", server)
		}
		now := n.intraRun.End
		var segs []*seg.PCB
		switch req.Type {
		case pathdb.Up:
			segs = ps.LookupUp(now)
		case pathdb.Down:
			segs = ps.LookupDown(now, req.Dst)
		case pathdb.Core:
			segs = ps.LookupCore(now, req.Dst)
		}
		return &LookupResult{Segments: segs}, nil
	}
	paths, err := n.Paths(from, server)
	if err != nil {
		return nil, err
	}
	reqPkt := &dataplane.Packet{
		Src:     addr.HostSvc(from, addr.SvcCS),
		Dst:     addr.HostSvc(server, addr.SvcCS),
		Path:    paths[0],
		Payload: encodeRequest(req),
	}
	var result *LookupResult
	var decodeErr error
	sentAt := n.clock.Now()
	frames := map[byte][]*seg.PCB{}
	replyBytes := 0
	prev := n.svcHandlers[from]
	n.svcHandlers[from] = func(pkt *dataplane.Packet) {
		segs, idx, total, err := decodeReplyFrame(pkt.Payload)
		if err != nil {
			decodeErr = err
			return
		}
		frames[idx] = segs
		replyBytes += pkt.WireLen()
		if len(frames) < int(total) {
			return
		}
		var all []*seg.PCB
		for i := byte(0); i < total; i++ {
			all = append(all, frames[i]...)
		}
		result = &LookupResult{
			Segments:     all,
			RequestBytes: reqPkt.WireLen(),
			ReplyBytes:   replyBytes,
			RTT:          int64(n.clock.Now() - sentAt),
		}
	}
	defer func() { n.svcHandlers[from] = prev }()
	if err := n.fabric.Inject(reqPkt); err != nil {
		return nil, err
	}
	n.clock.Run()
	if decodeErr != nil {
		return nil, decodeErr
	}
	if result == nil {
		return nil, fmt.Errorf("scion: lookup %s -> %s got no reply", from, server)
	}
	return result, nil
}

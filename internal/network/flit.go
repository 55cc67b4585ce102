package network

import "fmt"

// FlitType enumerates the packet and sub-packet flit encodings of
// Table II. The high bit distinguishes the co-design's sub-packet flits
// from conventional packet flits.
type FlitType uint8

const (
	FlitHead     FlitType = 0b000 // normal packet head
	FlitBody     FlitType = 0b001 // normal packet body
	FlitTail     FlitType = 0b010 // normal packet tail
	FlitHeadTail FlitType = 0b011 // single-flit packet

	FlitSubHead FlitType = 0b100 // head flit of a big-gradient message
	FlitSubBody FlitType = 0b101 // sub-packet body
	FlitSubTail FlitType = 0b110 // end of a sub-packet
	FlitMsgTail FlitType = 0b111 // end of the whole gradient message
)

func (t FlitType) String() string {
	switch t {
	case FlitHead:
		return "Head"
	case FlitBody:
		return "Body"
	case FlitTail:
		return "Tail"
	case FlitHeadTail:
		return "Head&Tail"
	case FlitSubHead:
		return "SubHead"
	case FlitSubBody:
		return "SubBody"
	case FlitSubTail:
		return "SubTail"
	case FlitMsgTail:
		return "MsgTail"
	}
	return fmt.Sprintf("FlitType(%d)", uint8(t))
}

// Flitize returns the per-flit type sequence for a transfer of payload
// bytes under the configured flow control — the exact on-wire framing of
// Fig. 7. It is the tests' framing oracle: the simulators use the
// closed-form Config.WireBytes, which tests check for agreement with
// len(Flitize(...)).
func (c Config) Flitize(payload int64) []FlitType {
	if payload <= 0 {
		return nil
	}
	flitsPerPayload := func(b int64) int64 {
		return (b + int64(c.FlitBytes) - 1) / int64(c.FlitBytes)
	}
	var out []FlitType
	if c.MessageBased {
		// One big message: SubHead, then body flits with SubTail marking
		// each sub-packet boundary, closed by MsgTail (Fig. 7b). Sub-tail
		// flits replace the final body flit of their sub-packet, so the
		// only added flit is the message head.
		out = append(out, FlitSubHead)
		body := flitsPerPayload(payload)
		subFlits := int64(c.PayloadBytes / c.FlitBytes)
		for i := int64(1); i <= body; i++ {
			switch {
			case i == body:
				out = append(out, FlitMsgTail)
			case i%subFlits == 0:
				out = append(out, FlitSubTail)
			default:
				out = append(out, FlitSubBody)
			}
		}
		return out
	}
	// Conventional packets: one head flit per payload packet (Fig. 7a).
	for payload > 0 {
		chunk := int64(c.PayloadBytes)
		if payload < chunk {
			chunk = payload
		}
		payload -= chunk
		body := flitsPerPayload(chunk)
		out = append(out, FlitHead)
		for i := int64(1); i <= body; i++ {
			if i == body {
				out = append(out, FlitTail)
			} else {
				out = append(out, FlitBody)
			}
		}
	}
	return out
}

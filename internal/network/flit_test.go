package network_test

import (
	"testing"

	"multitree/internal/network"
)

// TestFlitTypeTable pins the Table II encodings: the 3-bit code and name
// of each flit type, sub-packet types carrying the high bit.
func TestFlitTypeTable(t *testing.T) {
	want := []struct {
		ty   network.FlitType
		code uint8
		name string
	}{
		{network.FlitHead, 0b000, "Head"},
		{network.FlitBody, 0b001, "Body"},
		{network.FlitTail, 0b010, "Tail"},
		{network.FlitHeadTail, 0b011, "Head&Tail"},
		{network.FlitSubHead, 0b100, "SubHead"},
		{network.FlitSubBody, 0b101, "SubBody"},
		{network.FlitSubTail, 0b110, "SubTail"},
		{network.FlitMsgTail, 0b111, "MsgTail"},
	}
	for _, w := range want {
		if uint8(w.ty) != w.code || w.ty.String() != w.name {
			t.Errorf("%v: code %03b, want %03b %s", w.ty, uint8(w.ty), w.code, w.name)
		}
	}
}

// TestFlitizeFraming pins the Fig. 7 message framing: a message-based
// transfer starts with SubHead, ends with MsgTail, and marks sub-packet
// boundaries with SubTail.
func TestFlitizeFraming(t *testing.T) {
	cfg := network.MessageConfig()
	flits := cfg.Flitize(1024) // 4 sub-packets of 256 B
	if flits[0] != network.FlitSubHead {
		t.Errorf("first flit %v, want SubHead", flits[0])
	}
	if flits[len(flits)-1] != network.FlitMsgTail {
		t.Errorf("last flit %v, want MsgTail", flits[len(flits)-1])
	}
	subTails := 0
	for _, f := range flits {
		if f == network.FlitSubTail {
			subTails++
		}
	}
	if subTails != 3 { // boundaries between 4 sub-packets, last is MsgTail
		t.Errorf("%d SubTail flits, want 3", subTails)
	}
	// Packet-based framing: one Head and one Tail per 256 B packet.
	pkt := network.DefaultConfig().Flitize(1024)
	heads, tails := 0, 0
	for _, f := range pkt {
		switch f {
		case network.FlitHead:
			heads++
		case network.FlitTail:
			tails++
		}
	}
	if heads != 4 || tails != 4 {
		t.Errorf("packet framing: %d heads %d tails, want 4/4", heads, tails)
	}
}

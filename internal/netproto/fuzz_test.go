package netproto

import (
	"bytes"
	"testing"

	"rcbr/internal/cell"
	"rcbr/internal/switchfab"
)

// FuzzServerHandle feeds arbitrary datagrams to the server's dispatcher: it
// must never panic and must never reply with anything but a well-formed
// frame.
func FuzzServerHandle(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendSetup(nil, 1, SetupReq{VCI: 1, Port: 1, Rate: 1e5}))
	f.Add(AppendTeardown(nil, 2, 1))
	f.Add(AppendErr(nil, 3, ErrCodeGeneric, "x"))
	f.Add([]byte{Magic, Version, 99, 0, 0, 0, 0})
	for _, seed := range rmFrameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sw := switchfab.New()
		if err := sw.AddPort(1, 1e6); err != nil {
			t.Fatal(err)
		}
		if err := sw.Setup(1, 1, 1e5); err != nil {
			t.Fatal(err)
		}
		s := &Server{sw: sw}
		reply := s.handle(data, newScratch())
		if reply == nil {
			return
		}
		if _, err := ParseFrame(reply); err != nil {
			t.Fatalf("server produced malformed reply %x: %v", reply, err)
		}
		if len(reply) > maxFrame {
			t.Fatalf("reply length %d exceeds frame cap", len(reply))
		}
	})
}

// rmFrameSeeds are RM frames around the codec's edges: k = 1, 2, 9 and 10
// cells for VCs 1..k, no cells at all, and k whole cells plus one byte.
func rmFrameSeeds(tb testing.TB) [][]byte {
	var items []rmItem
	for i := 1; i <= MaxRMBatch+1; i++ {
		items = append(items, rmItem{cell.Header{VCI: uint16(i)}, cell.RM{ER: 1e4, Seq: uint32(i)}})
	}
	return [][]byte{
		rmFrame(tb, TypeRM, 4, items[:1]...),
		rmFrame(tb, TypeRM, 5, items[:2]...),
		rmFrame(tb, TypeRM, 6, items[:MaxRMBatch]...),
		rmFrame(tb, TypeRM, 7, items...),
		rmFrame(tb, TypeRM, 8),
		append(rmFrame(tb, TypeRM, 9, items[:3]...), 0),
	}
}

// FuzzParseFrame must never panic, accepted frames must carry a payload
// view inside the input, and an RM payload the codec accepts must re-encode
// to the bytes that arrived.
func FuzzParseFrame(f *testing.F) {
	f.Add([]byte{Magic, Version, TypeSetup, 0, 0, 0, 1, 9, 9})
	f.Add([]byte{})
	for _, seed := range rmFrameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ParseFrame(data)
		if err != nil {
			return
		}
		if len(fr.Payload) > len(data) {
			t.Fatal("payload longer than input")
		}
		k, err := rmCells(fr.Payload)
		if err != nil {
			return
		}
		again := appendHeader(nil, fr.Type, fr.ReqID)
		for i := 0; i < k; i++ {
			h, m, err := DecodeRM(fr.Payload[i*cell.Size : (i+1)*cell.Size])
			if err != nil {
				return
			}
			if again, err = appendRMCell(again, h, m); err != nil {
				t.Fatalf("accepted cell %d fails to rebuild: %v", i, err)
			}
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted RM frame re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}

package netproto

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

// These tests drive Server.handle with RM frames of k cells: what a frame
// does to the switch and what comes back, cell by cell.

// mb is the tests' unit of rate: a power of two, so it and its small
// multiples cross the wire's 16-bit rate code unchanged.
const mb = 1 << 20

// rmItem is one cell of an RM frame under test.
type rmItem struct {
	h cell.Header
	m cell.RM
}

// rmFrame builds an RM frame of the given type: the header, then one cell per
// item. Nothing in this repository sends k > 1 cells; a frame that does is
// input from outside the program, which these tests stand in for.
func rmFrame(t testing.TB, typ uint8, reqID uint32, items ...rmItem) []byte {
	t.Helper()
	b := appendHeader(nil, typ, reqID)
	for _, it := range items {
		var err error
		if b, err = appendRMCell(b, it.h, it.m); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// rmFrameCells splits an RM frame back into its cells, failing the test on
// anything the strict codec refuses.
func rmFrameCells(t testing.TB, b []byte, typ uint8, reqID uint32) []rmItem {
	t.Helper()
	f, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != Version || f.Type != typ || f.ReqID != reqID {
		t.Fatalf("frame = %+v, want type %d req %d", f, typ, reqID)
	}
	k, err := rmCells(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]rmItem, k)
	for i := range items {
		if items[i].h, items[i].m, err = DecodeRM(f.Payload[i*cell.Size : (i+1)*cell.Size]); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	return items
}

// quantized is m as it reads after one trip through the 16-bit rate code.
func quantized(m cell.RM) cell.RM {
	er16, _ := cell.EncodeRate16(m.ER)
	m.ER = cell.DecodeRate16(er16)
	return m
}

// frameSwitch is a switch with VCs 1..8 at 1 mb on a 100 Mb/s port behind a
// server with no socket.
func frameSwitch(t *testing.T, opts ...ServerOption) (*switchfab.Switch, *Server) {
	t.Helper()
	sw := switchfab.New()
	if err := sw.AddPort(1, 100e6); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if err := sw.Setup(uint16(i), 1, mb); err != nil {
			t.Fatal(err)
		}
	}
	s := &Server{sw: sw}
	for _, opt := range opts {
		opt(s)
	}
	return sw, s
}

func TestRMBatchCodecRoundTrip(t *testing.T) {
	items := []rmItem{
		{cell.Header{VCI: 1}, cell.RM{ER: 1e6, Seq: 7}},
		{cell.Header{VPI: 3, VCI: 2}, cell.RM{Decrease: true, ER: 5e5, Seq: 8}},
		{cell.Header{VCI: 3, GFC: 5, CLP: true}, cell.RM{Resync: true, ER: 4e6, Seq: 9}},
		{cell.Header{VPI: 255, VCI: 65535}, cell.RM{Backward: true, Response: true, Deny: true, ER: 2e6, Seq: 10}},
	}
	b := rmFrame(t, TypeRM, 42, items...)
	got := rmFrameCells(t, b, TypeRM, 42)
	if len(got) != len(items) {
		t.Fatalf("decoded %d cells, want %d", len(got), len(items))
	}
	for i, want := range items {
		want.h.PTI = cell.PTIRM
		want.m = quantized(want.m)
		if got[i] != want {
			t.Errorf("cell %d = %+v, want %+v", i, got[i], want)
		}
	}
	// What was accepted re-encodes to the bytes that arrived.
	if again := rmFrame(t, TypeRM, 42, got...); !bytes.Equal(again, b) {
		t.Errorf("re-encoded frame differs:\n got %x\nwant %x", again, b)
	}
	// The frame of one is the single-RM datagram, byte for byte.
	single, err := AppendRM(nil, 42, items[1].h, items[1].m)
	if err != nil {
		t.Fatal(err)
	}
	if one := rmFrame(t, TypeRM, 42, items[1]); !bytes.Equal(one, single) {
		t.Errorf("frame of one differs from AppendRM:\n got %x\nwant %x", one, single)
	}
}

// TestRMBatchCodecLimits: an RM payload is 1..MaxRMBatch whole cells and
// nothing else, and DecodeRM takes exactly one cell — bytes after it are not
// ignored.
func TestRMBatchCodecLimits(t *testing.T) {
	if MaxRMBatch != 9 {
		t.Fatalf("MaxRMBatch = %d, want 9 cells in a %d-byte frame", MaxRMBatch, maxFrame)
	}
	full := make([]rmItem, MaxRMBatch+1)
	for i := range full {
		full[i] = rmItem{cell.Header{VCI: uint16(i + 1)}, cell.RM{ER: 1e6, Seq: uint32(i + 1)}}
	}
	over := rmFrame(t, TypeRM, 1, full...)
	b := over[:len(over)-cell.Size]
	if len(b) > maxFrame {
		t.Fatalf("full frame is %d bytes, exceeds maxFrame %d", len(b), maxFrame)
	}
	if got := rmFrameCells(t, b, TypeRM, 1); len(got) != MaxRMBatch {
		t.Fatalf("full frame decodes to %d cells", len(got))
	}
	sw := switchfab.New()
	s := &Server{sw: sw}
	for name, frame := range map[string][]byte{
		"no cells":              b[:headerLen],
		"partial cell":          b[:headerLen+cell.Size-1],
		"one cell and a byte":   b[:headerLen+cell.Size+1],
		"nine cells and a byte": append(append([]byte{}, b...), 0),
		"ten cells":             over,
	} {
		payload := frame[headerLen:]
		if _, err := rmCells(payload); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: rmCells: %v", name, err)
		}
		if _, _, err := DecodeRM(payload); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: DecodeRM: %v", name, err)
		}
		f, err := ParseFrame(s.handle(frame, newScratch()))
		if err != nil || f.Type != TypeErr || len(f.Payload) == 0 || f.Payload[0] != ErrCodeProto {
			t.Errorf("%s: server answered %+v, %v; want a protocol error", name, f, err)
		}
	}
	// DecodeRM is the frame of one: two whole cells are a frame, not a cell.
	if _, _, err := DecodeRM(b[headerLen : headerLen+2*cell.Size]); !errors.Is(err, ErrFrame) {
		t.Errorf("DecodeRM of two cells: %v", err)
	}
}

// TestServerRMFrame: the reply carries one backward cell per resolved cell,
// in request order; an unknown VC and an invalid request are left out and
// touch nothing.
func TestServerRMFrame(t *testing.T) {
	reg := metrics.NewRegistry()
	sw, s := frameSwitch(t, WithServerMetrics(reg))
	req := rmFrame(t, TypeRM, 77,
		rmItem{cell.Header{VCI: 3}, cell.RM{Resync: true, ER: 4 * mb, Seq: 1}},   // absolute 4 * mb
		rmItem{cell.Header{VCI: 99}, cell.RM{ER: mb, Seq: 1}},                    // unknown VC: no reply cell
		rmItem{cell.Header{VCI: 1}, cell.RM{ER: mb, Seq: 1}},                     // increase to 2 * mb
		rmItem{cell.Header{VCI: 4}, cell.RM{Backward: true, ER: 1, Seq: 1}},      // invalid: no reply cell
		rmItem{cell.Header{VCI: 2}, cell.RM{Decrease: true, ER: mb / 2, Seq: 1}}, // decrease to mb / 2
	)
	got := rmFrameCells(t, s.handle(req, newScratch()), TypeRMReply, 77)
	want := []struct {
		vci  uint16
		rate float64
	}{{3, 4 * mb}, {1, 2 * mb}, {2, mb / 2}}
	if len(got) != len(want) {
		t.Fatalf("got %d reply cells, want %d (unknown and invalid cells omitted): %+v", len(got), len(want), got)
	}
	for i, w := range want {
		r := got[i]
		if r.h.VCI != w.vci {
			t.Fatalf("reply cell %d is for VC %d, want %d (request order)", i, r.h.VCI, w.vci)
		}
		if !r.m.Backward || !r.m.Response || !r.m.Resync || r.m.Deny || r.m.Seq != 1 {
			t.Errorf("reply for VC %d = %+v, want a granted backward/response/resync cell", w.vci, r.m)
		}
		if r.m.ER != w.rate {
			t.Errorf("reply for VC %d carries %g, want %g", w.vci, r.m.ER, w.rate)
		}
	}
	for vci, rate := range map[switchfab.VCID]float64{1: 2 * mb, 2: mb / 2, 3: 4 * mb, 4: mb} {
		if r, _ := sw.VCRateID(vci); r != rate {
			t.Errorf("VC %d rate = %g, want %g", vci, r, rate)
		}
	}
	// One frame, five cells, three decisions: one counter per fact.
	snap := reg.Snapshot()
	if f, c := snap.Counters[MetricServerRM], snap.Counters[MetricServerBatchCells]; f != 1 || c != 5 {
		t.Errorf("server counted %d RM frames carrying %d cells, want 1 and 5", f, c)
	}
	if st := sw.Stats(); st.Renegotiations != 3 || st.Grants != 3 {
		t.Errorf("switch stats %+v, want 3 renegotiations, all granted", st)
	}

	// A frame in which nothing resolves is answered with its first cell's
	// error: ErrNoVC for unknown VCs.
	none := rmFrame(t, TypeRM, 78,
		rmItem{cell.Header{VCI: 98}, cell.RM{ER: mb, Seq: 1}},
		rmItem{cell.Header{VCI: 99}, cell.RM{ER: mb, Seq: 1}},
	)
	f, err := ParseFrame(s.handle(none, newScratch()))
	if err != nil || f.Type != TypeErr || f.ReqID != 78 || f.Payload[0] != ErrCodeNoVC {
		t.Errorf("all-unknown frame answered %+v, %v; want ErrNoVC", f, err)
	}

	// A cell that fails its CRC fails the frame, after the cells ahead of it
	// were applied; the error reply sends the sender to absolute resyncs.
	bad := rmFrame(t, TypeRM, 79,
		rmItem{cell.Header{VCI: 5}, cell.RM{ER: mb, Seq: 1}},
		rmItem{cell.Header{VCI: 6}, cell.RM{ER: mb, Seq: 1}},
	)
	bad[len(bad)-1] ^= 1
	f, err = ParseFrame(s.handle(bad, newScratch()))
	if err != nil || f.Type != TypeErr || f.ReqID != 79 {
		t.Errorf("frame with a corrupt cell answered %+v, %v; want an error reply", f, err)
	}
	if r5, _ := sw.VCRateID(5); r5 != 2*mb {
		t.Errorf("VC 5 rate = %g, want %d (the cell ahead of the corrupt one applied)", r5, 2*mb)
	}
	if r6, _ := sw.VCRateID(6); r6 != mb {
		t.Errorf("VC 6 rate = %g, want %d (the corrupt cell touched nothing)", r6, mb)
	}
}

// TestServerRMFrameSeqDupDrop: a replayed frame (the coalescing client's
// identical retransmission) is answered with current absolute rates, not
// applied again.
func TestServerRMFrameSeqDupDrop(t *testing.T) {
	sw, s := frameSwitch(t)
	req := rmFrame(t, TypeRM, 5,
		rmItem{cell.Header{VCI: 1}, cell.RM{ER: mb, Seq: 5}},
		rmItem{cell.Header{VCI: 2}, cell.RM{ER: 2 * mb, Seq: 5}},
	)
	first := rmFrameCells(t, s.handle(req, newScratch()), TypeRMReply, 5)
	replay := rmFrameCells(t, s.handle(req, newScratch()), TypeRMReply, 5)
	if len(first) != 2 || len(replay) != 2 {
		t.Fatalf("reply cell counts %d/%d, want 2/2", len(first), len(replay))
	}
	for i := range replay {
		if replay[i].h != first[i].h || replay[i].m.ER != first[i].m.ER {
			t.Errorf("replayed cell %d = %+v, first answer was %+v", i, replay[i], first[i])
		}
		if replay[i].m.Deny {
			t.Errorf("VC %d replay marked deny; a duplicate drop is not a denial", replay[i].h.VCI)
		}
	}
	if r, _ := sw.VCRateID(1); r != 2*mb {
		t.Errorf("VC 1 rate %g after replay, want 2 * mb (delta applied once)", r)
	}
	if st := sw.Stats(); st.DupDrops != 2 || st.Renegotiations != 2 {
		t.Errorf("stats %+v, want 2 duplicate drops after 2 renegotiations", st)
	}

	// The same VC twice in one frame: the second sequenced delta is the
	// duplicate. (The client never builds this; the wire allows it.)
	twice := rmFrame(t, TypeRM, 6,
		rmItem{cell.Header{VCI: 3}, cell.RM{ER: mb, Seq: 9}},
		rmItem{cell.Header{VCI: 3}, cell.RM{ER: mb, Seq: 9}},
	)
	got := rmFrameCells(t, s.handle(twice, newScratch()), TypeRMReply, 6)
	if len(got) != 2 || got[0].m.ER != 2*mb || got[1].m.ER != 2*mb || got[1].m.Deny {
		t.Errorf("same VC twice in a frame answered %+v, want 2 * mb twice", got)
	}
	if r, _ := sw.VCRateID(3); r != 2*mb {
		t.Errorf("VC 3 rate %g, want 2 * mb (delta applied once)", r)
	}
}

// TestServerRMFrameDeny: the capacity decision is per cell inside a frame.
func TestServerRMFrameDeny(t *testing.T) {
	_, s := frameSwitch(t) // 8 mb reserved of 100 Mb/s
	req := rmFrame(t, TypeRM, 1,
		rmItem{cell.Header{VCI: 1}, cell.RM{ER: 256 * mb, Seq: 1}}, // exceeds capacity: denied
		rmItem{cell.Header{VCI: 2}, cell.RM{ER: mb, Seq: 1}},       // fits: granted
	)
	got := rmFrameCells(t, s.handle(req, newScratch()), TypeRMReply, 1)
	if len(got) != 2 {
		t.Fatalf("got %d reply cells, want 2", len(got))
	}
	if m := got[0].m; got[0].h.VCI != 1 || !m.Deny || m.ER != mb {
		t.Errorf("VC 1 reply %+v, want deny with old rate mb", got[0])
	}
	if m := got[1].m; got[1].h.VCI != 2 || m.Deny || m.ER != 2*mb {
		t.Errorf("VC 2 reply %+v, want grant of 2 * mb", got[1])
	}
}

// TestServerRMFrameFull sends the largest frame, VCs on several VPIs out of
// id order, and checks every cell is answered exactly once, in request order.
func TestServerRMFrameFull(t *testing.T) {
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e9); err != nil {
		t.Fatal(err)
	}
	items := make([]rmItem, MaxRMBatch)
	for i := range items {
		id := switchfab.MakeVCID(uint8(i%3), uint16(MaxRMBatch-i)) // descending VCIs, VPIs interleaved
		if err := sw.SetupID(id, 1, mb); err != nil {
			t.Fatal(err)
		}
		items[i] = rmItem{cell.Header{VPI: id.VPI(), VCI: id.VCI()}, cell.RM{ER: mb, Seq: 1}}
	}
	s := &Server{sw: sw}
	reply := s.handle(rmFrame(t, TypeRM, 2, items...), newScratch())
	if len(reply) > maxFrame {
		t.Fatalf("reply of %d bytes exceeds maxFrame", len(reply))
	}
	got := rmFrameCells(t, reply, TypeRMReply, 2)
	if len(got) != MaxRMBatch {
		t.Fatalf("got %d reply cells, want %d", len(got), MaxRMBatch)
	}
	for i, r := range got {
		if r.h.VPI != items[i].h.VPI || r.h.VCI != items[i].h.VCI {
			t.Fatalf("reply cell %d is for VC %d.%d, request cell %d was for %d.%d",
				i, r.h.VPI, r.h.VCI, i, items[i].h.VPI, items[i].h.VCI)
		}
		if r.m.Deny || r.m.ER != 2*mb {
			t.Errorf("VC %d.%d reply %+v, want grant of 2 * mb", r.h.VPI, r.h.VCI, r.m)
		}
	}
	if st := sw.Stats(); st.Grants != MaxRMBatch {
		t.Errorf("stats %+v, want %d grants from one frame", st, MaxRMBatch)
	}
}

// TestRMFrameGolden pins the frame of one to the bytes the single-RM framing
// put on the wire before the batch codec was folded into it (captured from
// AppendRM and Server.handle at commit 13d3a25, in this order against one
// switch): requests and replies, the TypeErr replies included, are unchanged
// byte for byte.
func TestRMFrameGolden(t *testing.T) {
	sw := switchfab.New()
	if err := sw.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	if err := sw.SetupID(switchfab.MakeVCID(3, 42), 1, 1e6); err != nil {
		t.Fatal(err)
	}
	s := &Server{sw: sw}
	sc := newScratch()
	vc := cell.Header{VPI: 3, VCI: 42}
	for i, c := range []struct {
		id       uint32
		h        cell.Header
		m        cell.RM
		req, rep string
	}{
		{0x01020304, vc, cell.RM{ER: 374e3, Seq: 7}, // delta up, granted
			"c5020601020304003002acd30600c8da0000000700000000000000000000000000000000000000000000000000000000000000000000000000000310",
			"c5020701020304003002acd30607d09f0000000700000000000000000000000000000000000000000000000000000000000000000000000000000259"},
		{0xFFFFFFFE, vc, cell.RM{Decrease: true, ER: 1e5, Seq: 8}, // delta down
			"c50206fffffffe003002acd30610c10d000000080000000000000000000000000000000000000000000000000000000000000000000000000000003c",
			"c50207fffffffe003002acd30607d06e000000080000000000000000000000000000000000000000000000000000000000000000000000000000015d"},
		{9, cell.Header{VPI: 3, VCI: 42, GFC: 5, CLP: true}, cell.RM{Resync: true, ER: 2e6}, // unsequenced resync, GFC and CLP echoed
			"c5020600000009503002ad280604d1d100000000000000000000000000000000000000000000000000000000000000000000000000000000000003bf",
			"c5020700000009503002ad280607d1d10000000000000000000000000000000000000000000000000000000000000000000000000000000000000064"},
		{10, vc, cell.RM{ER: 1e9, Seq: 9}, // over capacity, denied
			"c502060000000a003002acd30600f5ba0000000900000000000000000000000000000000000000000000000000000000000000000000000000000144",
			"c502070000000a003002acd3060fd1d100000009000000000000000000000000000000000000000000000000000000000000000000000000000003d2"},
		{11, vc, cell.RM{ER: 1e3, Seq: 9}, // stale sequence, duplicate-dropped
			"c502060000000b003002acd30600a5e8000000090000000000000000000000000000000000000000000000000000000000000000000000000000016d",
			"c502070000000b003002acd30607d1d100000009000000000000000000000000000000000000000000000000000000000000000000000000000001de"},
		{12, cell.Header{VCI: 999}, cell.RM{ER: 1e3, Seq: 1}, // unknown VC: TypeErr, ErrCodeNoVC
			"c502060000000c00003e7c090600a5e80000000100000000000000000000000000000000000000000000000000000000000000000000000000000391",
			"c502030000000c037377697463686661623a206e6f20737563682056433a20393939"},
		{13, vc, cell.RM{Backward: true, ER: 1e3, Seq: 10}, // backward cell: TypeErr, generic
			"c502060000000d003002acd30601a5e80000000a000000000000000000000000000000000000000000000000000000000000000000000000000001cc",
			"c502030000000d007377697463686661623a2048616e646c65524d206f6e2061206261636b776172642f726573706f6e73652063656c6c"},
	} {
		req, err := AppendRM(nil, c.id, c.h, c.m)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(req); got != c.req {
			t.Errorf("case %d request:\n got %s\nwant %s", i, got, c.req)
		}
		if got := hex.EncodeToString(s.handle(req, sc)); got != c.rep {
			t.Errorf("case %d reply:\n got %s\nwant %s", i, got, c.rep)
		}
	}
}

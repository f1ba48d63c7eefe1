package switchfab

import (
	"errors"
	"math"
	"sync"
	"testing"
	"unsafe"

	"rcbr/internal/cell"
)

func newTestSwitch(t *testing.T, capacity float64) *Switch {
	t.Helper()
	s := New()
	if err := s.AddPort(1, capacity); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSetupTeardown(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.Setup(10, 1, 300e3); err != nil {
		t.Fatal(err)
	}
	if vc, err := s.VC(10); err != nil || vc.Rate != 300e3 {
		t.Fatalf("VC(10).Rate = %v, %v", vc.Rate, err)
	}
	reserved, capacity, err := s.PortLoad(1)
	if err != nil || reserved != 300e3 || capacity != 1e6 {
		t.Fatalf("PortLoad = %v/%v, %v", reserved, capacity, err)
	}
	if s.VCCount() != 1 {
		t.Fatalf("VCCount = %d", s.VCCount())
	}
	if err := s.TeardownID(10); err != nil {
		t.Fatal(err)
	}
	reserved, _, _ = s.PortLoad(1)
	if reserved != 0 {
		t.Fatalf("reserved after teardown = %v", reserved)
	}
}

func TestSetupErrors(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.Setup(1, 99, 1); !errors.Is(err, ErrNoPort) {
		t.Errorf("missing port: %v", err)
	}
	if err := s.Setup(1, 1, -5); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("negative rate: %v", err)
	}
	if err := s.Setup(1, 1, 2e6); !errors.Is(err, ErrCapacity) {
		t.Errorf("over capacity: %v", err)
	}
	if err := s.Setup(1, 1, 1e5); err != nil {
		t.Fatal(err)
	}
	if err := s.Setup(1, 1, 1e5); !errors.Is(err, ErrVCExists) {
		t.Errorf("duplicate VCI: %v", err)
	}
	if err := s.TeardownID(42); !errors.Is(err, ErrNoVC) {
		t.Errorf("missing VC: %v", err)
	}
	if err := s.AddPort(1, 1); !errors.Is(err, ErrPortExists) {
		t.Errorf("duplicate port: %v", err)
	}
	if err := s.AddPort(2, 0); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("zero capacity port: %v", err)
	}
}

// TestPortTableOutOfOrderIDs adds ports in an order unrelated to their ids,
// so the by-id search and the by-slot index disagree on every position: each
// id must still find its own port, and each VC must reach the port it was set
// up on.
func TestPortTableOutOfOrderIDs(t *testing.T) {
	s := New()
	ids := []int{5, -3, 9, 0, 7}
	for _, id := range ids {
		if err := s.AddPort(id, float64(1000+id)); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		if err := s.AddPort(id, 1); !errors.Is(err, ErrPortExists) {
			t.Errorf("duplicate port %d: %v", id, err)
		}
		if _, capacity, err := s.PortLoad(id); err != nil || capacity != float64(1000+id) {
			t.Errorf("PortLoad(%d) = %v, %v; want capacity %d", id, capacity, err, 1000+id)
		}
		if err := s.SetupID(VCID(i), id, 1); err != nil {
			t.Fatal(err)
		}
		if vc, err := s.VC(VCID(i)); err != nil || vc.Port != id {
			t.Errorf("VC %d = %+v, %v; want it on port %d", i, vc, err, id)
		}
	}
	for _, id := range []int{-4, 1, 6, 10} {
		if _, _, err := s.PortLoad(id); !errors.Is(err, ErrNoPort) {
			t.Errorf("PortLoad(%d) = %v, want ErrNoPort", id, err)
		}
	}
}

func TestRenegotiateGrantAndDeny(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.Setup(1, 1, 400e3); err != nil {
		t.Fatal(err)
	}
	if err := s.Setup(2, 1, 400e3); err != nil {
		t.Fatal(err)
	}
	// 800k reserved of 1M. VC 1 asks for 700k: needs 1.1M total -> deny.
	granted, ok, err := s.RenegotiateID(1, 700e3)
	if err != nil {
		t.Fatal(err)
	}
	if ok || granted != 400e3 {
		t.Fatalf("deny expected, got granted=%v ok=%v", granted, ok)
	}
	// Ask for 500k: 900k total -> grant.
	granted, ok, err = s.RenegotiateID(1, 500e3)
	if err != nil || !ok || granted != 500e3 {
		t.Fatalf("grant expected: %v %v %v", granted, ok, err)
	}
	// Decrease always succeeds.
	granted, ok, err = s.RenegotiateID(2, 100e3)
	if err != nil || !ok || granted != 100e3 {
		t.Fatalf("decrease: %v %v %v", granted, ok, err)
	}
	st := s.Stats()
	if st.Renegotiations != 3 || st.Denials != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRenegotiateErrors(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if _, _, err := s.RenegotiateID(9, 1); !errors.Is(err, ErrNoVC) {
		t.Errorf("missing VC: %v", err)
	}
	if err := s.Setup(1, 1, 1e5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RenegotiateID(1, -1); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("negative rate: %v", err)
	}
}

func TestHandleRMDeltaUp(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.Setup(7, 1, 200e3); err != nil {
		t.Fatal(err)
	}
	h := cell.Header{VCI: 7, PTI: cell.PTIRM}
	resp, err := s.HandleRM(h, cell.RM{ER: 100e3, Seq: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deny || !resp.Backward || !resp.Response || resp.Seq != 5 {
		t.Fatalf("resp = %+v", resp)
	}
	if math.Abs(resp.ER-300e3) > 1 {
		t.Fatalf("granted rate = %v, want 300e3", resp.ER)
	}
	if vc, _ := s.VC(7); math.Abs(vc.Rate-300e3) > 1 {
		t.Fatalf("VC rate = %v", vc.Rate)
	}
}

func TestHandleRMDeltaDown(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.Setup(7, 1, 200e3); err != nil {
		t.Fatal(err)
	}
	resp, err := s.HandleRM(cell.Header{VCI: 7}, cell.RM{ER: 150e3, Decrease: true})
	if err != nil || resp.Deny {
		t.Fatalf("decrease denied: %+v %v", resp, err)
	}
	if math.Abs(resp.ER-50e3) > 1 {
		t.Fatalf("rate = %v, want 50e3", resp.ER)
	}
	// Decrease below zero clamps.
	resp, err = s.HandleRM(cell.Header{VCI: 7}, cell.RM{ER: 500e3, Decrease: true})
	if err != nil || resp.ER != 0 {
		t.Fatalf("clamp: %+v %v", resp, err)
	}
}

func TestHandleRMDeny(t *testing.T) {
	s := newTestSwitch(t, 500e3)
	if err := s.Setup(1, 1, 300e3); err != nil {
		t.Fatal(err)
	}
	if err := s.Setup(2, 1, 150e3); err != nil {
		t.Fatal(err)
	}
	resp, err := s.HandleRM(cell.Header{VCI: 1}, cell.RM{ER: 200e3})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Deny {
		t.Fatalf("expected denial: %+v", resp)
	}
	// Denied reply still reports the rate in force for resync.
	if math.Abs(resp.ER-300e3) > 1 {
		t.Fatalf("denied reply ER = %v, want current 300e3", resp.ER)
	}
	if vc, _ := s.VC(1); vc.Rate != 300e3 {
		t.Fatalf("rate changed on denial: %v", vc.Rate)
	}
}

func TestHandleRMResync(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.Setup(3, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	resp, err := s.HandleRM(cell.Header{VCI: 3}, cell.RM{ER: 250e3, Resync: true})
	if err != nil || resp.Deny {
		t.Fatalf("resync: %+v %v", resp, err)
	}
	if vc, _ := s.VC(3); math.Abs(vc.Rate-250e3) > 1 {
		t.Fatalf("rate after resync = %v", vc.Rate)
	}
	if st := s.Stats(); st.Resyncs != 1 {
		t.Fatalf("resyncs = %d", st.Resyncs)
	}
	// Resync beyond capacity is denied and keeps the old rate.
	resp, err = s.HandleRM(cell.Header{VCI: 3}, cell.RM{ER: 2e6, Resync: true})
	if err != nil || !resp.Deny {
		t.Fatalf("oversubscribing resync not denied: %+v %v", resp, err)
	}
	if vc, _ := s.VC(3); math.Abs(vc.Rate-250e3) > 1 {
		t.Fatalf("rate after denied resync = %v", vc.Rate)
	}
}

func TestHandleRMErrors(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if _, err := s.HandleRM(cell.Header{VCI: 9}, cell.RM{ER: 1}); !errors.Is(err, ErrNoVC) {
		t.Errorf("missing VC: %v", err)
	}
	if err := s.Setup(1, 1, 1e5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.HandleRM(cell.Header{VCI: 1}, cell.RM{Backward: true}); err == nil {
		t.Error("backward cell accepted")
	}
	if _, err := s.HandleRM(cell.Header{VCI: 1}, cell.RM{ER: -1}); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("negative ER: %v", err)
	}
}

// TestHandleRMSequenceSemantics pins down the per-VC sequence rules: a
// sequenced delta at or below the last-seen number is dropped as a delayed
// duplicate (reply carries the absolute current rate, Resync set, no Deny),
// a resync above it applies, and Seq 0 cells bypass the check entirely
// (legacy unsequenced senders).
func TestHandleRMSequenceSemantics(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.Setup(5, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	h := cell.Header{VCI: 5, PTI: cell.PTIRM}

	// Delta Seq 1 applies: 100k + 100k.
	if resp, err := s.HandleRM(h, cell.RM{ER: 100e3, Seq: 1}); err != nil || resp.Deny {
		t.Fatalf("delta seq 1: %+v %v", resp, err)
	}
	// Resync Seq 2 asserts 300k (the retry after a presumed-lost delta).
	if resp, err := s.HandleRM(h, cell.RM{ER: 300e3, Resync: true, Seq: 2}); err != nil || resp.Deny {
		t.Fatalf("resync seq 2: %+v %v", resp, err)
	}

	// The "lost" delta now arrives late. It must be dropped, not applied.
	resp, err := s.HandleRM(h, cell.RM{ER: 100e3, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deny || !resp.Resync || !resp.Backward || !resp.Response || resp.Seq != 1 {
		t.Fatalf("dup reply = %+v, want non-deny resync echoing seq", resp)
	}
	if math.Abs(resp.ER-300e3) > 1 {
		t.Fatalf("dup reply ER = %v, want current 300e3", resp.ER)
	}
	// Seq == lastSeq is equally stale.
	if resp, err := s.HandleRM(h, cell.RM{ER: 100e3, Seq: 2}); err != nil || resp.Deny || math.Abs(resp.ER-300e3) > 1 {
		t.Fatalf("dup at lastSeq: %+v %v", resp, err)
	}
	if vc, _ := s.VC(5); math.Abs(vc.Rate-300e3) > 1 {
		t.Fatalf("rate after duplicates = %v, want 300e3", vc.Rate)
	}
	st := s.Stats()
	if st.DupDrops != 2 {
		t.Fatalf("DupDrops = %d, want 2", st.DupDrops)
	}
	// Dropped duplicates are not renegotiation attempts: 1 delta + 1 resync.
	if st.Renegotiations != 2 {
		t.Fatalf("Renegotiations = %d, want 2", st.Renegotiations)
	}

	// A fresh delta above lastSeq still applies.
	if resp, err := s.HandleRM(h, cell.RM{ER: 50e3, Seq: 3}); err != nil || resp.Deny || math.Abs(resp.ER-350e3) > 1 {
		t.Fatalf("delta seq 3: %+v %v", resp, err)
	}
}

// TestHandleRMStaleResyncDropped is the stale-resync schedule at the
// switch: the client's first attempt (delta Seq 5, to R1) is applied but its
// reply is late, so the client retries with a resync (Seq 6, carrying R1);
// the late reply completes the request first and the next renegotiation
// (delta Seq 7, to R2) overtakes the retry. The resync that then arrives is
// older than the VC's state and must be dropped like a duplicate delta — not
// put the VC back at R1 and rewind lastSeq so that a replay of Seq 7 applies
// a second time.
func TestHandleRMStaleResyncDropped(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.Setup(7, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	h := cell.Header{VCI: 7, PTI: cell.PTIRM}
	const r1, r2 = 200e3, 250e3
	if resp, err := s.HandleRM(h, cell.RM{ER: r1 - 100e3, Seq: 5}); err != nil || resp.Deny {
		t.Fatalf("delta seq 5: %+v %v", resp, err)
	}
	if resp, err := s.HandleRM(h, cell.RM{ER: r2 - r1, Seq: 7}); err != nil || resp.Deny {
		t.Fatalf("delta seq 7: %+v %v", resp, err)
	}
	resp, err := s.HandleRM(h, cell.RM{ER: r1, Resync: true, Seq: 6})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deny || !resp.Resync || resp.Seq != 6 || resp.ER != r2 {
		t.Fatalf("stale resync reply = %+v, want non-deny echo of seq 6 carrying %g", resp, r2)
	}
	if vc, _ := s.VC(7); vc.Rate != r2 {
		t.Fatalf("rate after stale resync = %g, want %g (the overtaken retry restored the old rate)", vc.Rate, r2)
	}
	// lastSeq was not rewound: a replay of Seq 7 is still a duplicate.
	if resp, err := s.HandleRM(h, cell.RM{ER: r2 - r1, Seq: 7}); err != nil || resp.ER != r2 {
		t.Fatalf("replayed delta seq 7: %+v %v, want the rate in force %g", resp, err, r2)
	}
	// A replayed resync at lastSeq is as stale as a delta there.
	if resp, err := s.HandleRM(h, cell.RM{ER: r1, Resync: true, Seq: 7}); err != nil || resp.ER != r2 {
		t.Fatalf("resync at lastSeq: %+v %v, want the rate in force %g", resp, err, r2)
	}
	if reserved, _, _ := s.PortLoad(1); reserved != r2 {
		t.Fatalf("port reserved = %g, want %g", reserved, r2)
	}
	if st := s.Stats(); st.DupDrops != 3 || st.Resyncs != 0 || st.Grants != 2 {
		t.Fatalf("stats = %+v, want 3 duplicate drops, no resync applied, 2 grants", st)
	}
}

// TestHandleRMResyncResetsSequence walks the way back in for a source that
// crashed and numbers from 1 again (DESIGN §8). Its sequenced cells, resync
// included, are below the VC's last-seen number and are dropped, each reply
// carrying the rate in force; one unsequenced resync asserts its rate
// unconditionally and clears the sequence state, and the restarted
// numbering is fresh from there.
func TestHandleRMResyncResetsSequence(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.Setup(8, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	h := cell.Header{VCI: 8, PTI: cell.PTIRM}
	if _, err := s.HandleRM(h, cell.RM{ER: 100e3, Seq: 41}); err != nil {
		t.Fatal(err)
	}
	// Restarted source, still sequenced: told the rate in force, not adopted.
	if resp, err := s.HandleRM(h, cell.RM{ER: 150e3, Resync: true, Seq: 1}); err != nil || resp.Deny || resp.ER != 200e3 {
		t.Fatalf("sequenced restart resync: %+v %v, want the rate in force", resp, err)
	}
	if st := s.Stats(); st.DupDrops != 1 {
		t.Fatalf("DupDrops = %d, want 1", st.DupDrops)
	}
	// The unsequenced resync applies and resets the sequence state.
	if resp, err := s.HandleRM(h, cell.RM{ER: 150e3, Resync: true}); err != nil || resp.Deny {
		t.Fatalf("unsequenced restart resync: %+v %v", resp, err)
	}
	if vc, _ := s.VC(8); vc.Rate != 150e3 {
		t.Fatalf("rate after restart resync = %v", vc.Rate)
	}
	// Its next delta (Seq 2) is fresh, not a duplicate from before the restart.
	if resp, err := s.HandleRM(h, cell.RM{ER: 50e3, Seq: 2}); err != nil || resp.Deny || resp.ER != 200e3 {
		t.Fatalf("post-restart delta: %+v %v", resp, err)
	}
	if st := s.Stats(); st.DupDrops != 1 {
		t.Fatalf("DupDrops = %d, want 1", st.DupDrops)
	}
}

func TestHandleRMSeqZeroBypassesCheck(t *testing.T) {
	// Seq 0 marks an unsequenced sender: repeated Seq-0 deltas all apply
	// and never disturb the sequence state of sequenced traffic.
	s := newTestSwitch(t, 1e6)
	if err := s.Setup(6, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	h := cell.Header{VCI: 6, PTI: cell.PTIRM}
	for i := 0; i < 3; i++ {
		if resp, err := s.HandleRM(h, cell.RM{ER: 100e3}); err != nil || resp.Deny {
			t.Fatalf("seq-0 delta %d: %+v %v", i, resp, err)
		}
	}
	if vc, _ := s.VC(6); math.Abs(vc.Rate-400e3) > 1 {
		t.Fatalf("rate after three unsequenced deltas = %v, want 400e3", vc.Rate)
	}
	// Interleave a sequenced delta, then another Seq-0: both apply.
	if resp, err := s.HandleRM(h, cell.RM{ER: 50e3, Seq: 9}); err != nil || resp.Deny {
		t.Fatalf("sequenced delta: %+v %v", resp, err)
	}
	if resp, err := s.HandleRM(h, cell.RM{ER: 50e3}); err != nil || resp.Deny {
		t.Fatalf("seq-0 after sequenced: %+v %v", resp, err)
	}
	if st := s.Stats(); st.DupDrops != 0 {
		t.Fatalf("DupDrops = %d, want 0", st.DupDrops)
	}
}

func TestConcurrentRenegotiationsRespectCapacity(t *testing.T) {
	const (
		vcs      = 32
		capacity = 1e6
		low      = 20e3
		high     = 60e3
	)
	s := newTestSwitch(t, capacity)
	for i := 0; i < vcs; i++ {
		if err := s.Setup(uint16(i), 1, low); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < vcs; i++ {
		wg.Add(1)
		go func(vci VCID) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				if _, _, err := s.RenegotiateID(vci, high); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.RenegotiateID(vci, low); err != nil {
					t.Error(err)
					return
				}
			}
		}(VCID(i))
	}
	wg.Wait()
	reserved, cap2, err := s.PortLoad(1)
	if err != nil {
		t.Fatal(err)
	}
	if reserved > cap2 {
		t.Fatalf("reserved %v exceeds capacity %v after concurrent churn", reserved, cap2)
	}
	// Final state: every VC at low (last renegotiation always succeeds as
	// a decrease), so reserved must be exactly vcs*low.
	if math.Abs(reserved-vcs*low) > 1e-6 {
		t.Fatalf("reserved = %v, want %v", reserved, vcs*low)
	}
}

func TestEndToEndCellPath(t *testing.T) {
	// Round-trip through real encoded cells: build, parse, handle, reply.
	s := newTestSwitch(t, 1e6)
	if err := s.Setup(21, 1, 128e3); err != nil {
		t.Fatal(err)
	}
	raw, err := cell.Build(cell.Header{VCI: 21}, cell.RM{ER: 64e3, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, m, err := cell.Parse(raw[:])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.HandleRM(h, m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := cell.Build(cell.Header{VCI: 21}, resp)
	if err != nil {
		t.Fatal(err)
	}
	_, m2, err := cell.Parse(back[:])
	if err != nil {
		t.Fatal(err)
	}
	// 128k + 64k = 192k within 16-bit rate quantization (both encode
	// exactly: powers of two times small mantissa).
	if math.Abs(m2.ER-192e3)/192e3 > 1.0/256 {
		t.Fatalf("end-to-end granted rate = %v", m2.ER)
	}
}

func TestRenegotiateBest(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if err := s.Setup(1, 1, 300e3); err != nil {
		t.Fatal(err)
	}
	if err := s.Setup(2, 1, 500e3); err != nil {
		t.Fatal(err)
	}
	// 800k reserved of 1M; VC 1 asks for 600k but only 200k headroom is
	// left, so the best grant is 500k.
	granted, full, err := s.RenegotiateBestID(1, 600e3)
	if err != nil || full || granted != 500e3 {
		t.Fatalf("partial expected: granted=%v full=%v err=%v", granted, full, err)
	}
	if reserved, _, _ := s.PortLoad(1); reserved != 1e6 {
		t.Fatalf("reserved after partial = %v", reserved)
	}
	// Zero headroom now: an increase is flatly denied, rate unchanged.
	granted, full, err = s.RenegotiateBestID(2, 600e3)
	if err != nil || full || granted != 500e3 {
		t.Fatalf("flat denial expected: granted=%v full=%v err=%v", granted, full, err)
	}
	// Decreases always settle in full.
	granted, full, err = s.RenegotiateBestID(2, 100e3)
	if err != nil || !full || granted != 100e3 {
		t.Fatalf("decrease: granted=%v full=%v err=%v", granted, full, err)
	}
	// With 400k headroom the full target fits again.
	granted, full, err = s.RenegotiateBestID(1, 700e3)
	if err != nil || !full || granted != 700e3 {
		t.Fatalf("full grant: granted=%v full=%v err=%v", granted, full, err)
	}
	st := s.Stats()
	if st.PartialGrants != 1 {
		t.Fatalf("PartialGrants = %d", st.PartialGrants)
	}
	if st.Denials != 1 {
		t.Fatalf("Denials = %d", st.Denials)
	}
	if st.Renegotiations != 4 {
		t.Fatalf("Renegotiations = %d", st.Renegotiations)
	}
}

func TestRenegotiateBestErrors(t *testing.T) {
	s := newTestSwitch(t, 1e6)
	if _, _, err := s.RenegotiateBestID(9, 1); !errors.Is(err, ErrNoVC) {
		t.Errorf("missing VC: %v", err)
	}
	if err := s.Setup(1, 1, 1e5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RenegotiateBestID(1, -1); !errors.Is(err, ErrInvalidRate) {
		t.Errorf("negative rate: %v", err)
	}
}

// TestVCStateSize pins the switch's per-VC record at 32 bytes, the
// allocator's 32-byte class: a field added to it costs every VC of a switch
// without an MBAC 16 bytes more, and one with an MBAC the jump from the
// 128-byte class to the 144-byte one.
func TestVCStateSize(t *testing.T) {
	if size := unsafe.Sizeof(vcState{}); size > 32 {
		t.Errorf("vcState is %d bytes, want at most 32", size)
	}
	if size := unsafe.Sizeof(vcWithCall{}); size > 128 {
		t.Errorf("vcWithCall is %d bytes, want at most 128 (32 + 96)", size)
	}
}

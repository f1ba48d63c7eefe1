package switchfab

import (
	"errors"
	"testing"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
)

func TestVCIDPacking(t *testing.T) {
	cases := []struct {
		vpi uint8
		vci uint16
	}{
		{0, 0}, {0, 1}, {0, 65535}, {1, 0}, {7, 42}, {255, 65535},
	}
	for _, c := range cases {
		id := MakeVCID(c.vpi, c.vci)
		if id.VPI() != c.vpi || id.VCI() != c.vci {
			t.Errorf("MakeVCID(%d,%d) round-trips as (%d,%d)", c.vpi, c.vci, id.VPI(), id.VCI())
		}
	}
	if got := MakeVCID(0, 42).String(); got != "42" {
		t.Errorf("VPI-0 String() = %q, want 42", got)
	}
	if got := MakeVCID(3, 42).String(); got != "3.42" {
		t.Errorf("String() = %q, want 3.42", got)
	}
}

// TestVPIAddressing proves the fabric scales past the 16-bit VCI space: VCs
// on distinct VPIs with the same VCI are independent circuits, and HandleRM
// honors the header's VPI.
func TestVPIAddressing(t *testing.T) {
	s := New()
	if err := s.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(MakeVCID(0, 7), 1, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(MakeVCID(5, 7), 1, 2e6); err != nil {
		t.Fatalf("same VCI on another VPI must be a distinct circuit: %v", err)
	}
	if err := s.SetupID(MakeVCID(5, 7), 1, 2e6); !errors.Is(err, ErrVCExists) {
		t.Fatalf("duplicate (5,7) setup: %v", err)
	}
	m, err := s.HandleRM(cell.Header{VPI: 5, VCI: 7}, cell.RM{Resync: true, ER: 3e6})
	if err != nil || m.Deny {
		t.Fatalf("resync on (5,7): %v deny=%v", err, m.Deny)
	}
	if r, _ := s.VCRateID(MakeVCID(5, 7)); r != 3e6 {
		t.Errorf("(5,7) rate = %g, want 3e6", r)
	}
	if r, _ := s.VCRateID(MakeVCID(0, 7)); r != 1e6 {
		t.Errorf("(0,7) rate = %g after renegotiating (5,7), want untouched 1e6", r)
	}
	if err := s.TeardownID(MakeVCID(0, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.VCRateID(MakeVCID(0, 7)); !errors.Is(err, ErrNoVC) {
		t.Fatalf("(0,7) after teardown: %v", err)
	}
	if r, _ := s.VCRateID(MakeVCID(5, 7)); r != 3e6 {
		t.Errorf("(5,7) rate = %g after tearing down (0,7), want 3e6", r)
	}
}

func batchSwitch(t *testing.T, opts ...Option) *Switch {
	t.Helper()
	s := New(opts...)
	if err := s.AddPort(1, 100e6); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if err := s.Setup(uint16(i), 1, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestHandleRMBatch(t *testing.T) {
	s := batchSwitch(t)
	items := []RMItem{
		{VCI: 1, M: cell.RM{ER: 1e6, Seq: 1}},                 // increase to 2e6
		{VCI: 2, M: cell.RM{Decrease: true, ER: 5e5, Seq: 1}}, // decrease to 5e5
		{VCI: 3, M: cell.RM{Resync: true, ER: 4e6, Seq: 1}},   // absolute 4e6
		{VCI: 99, M: cell.RM{ER: 1e6, Seq: 1}},                // unknown VC: no reply
		{VCI: 4, M: cell.RM{Backward: true, ER: 1, Seq: 1}},   // invalid: no reply
	}
	out := s.HandleRMBatch(items, nil)
	if len(out) != 3 {
		t.Fatalf("got %d replies, want 3 (unknown and invalid items omitted): %+v", len(out), out)
	}
	want := map[uint16]float64{1: 2e6, 2: 5e5, 3: 4e6}
	for _, r := range out {
		if !r.M.Backward || !r.M.Response || !r.M.Resync {
			t.Errorf("reply for VC %d not marked backward/response/resync: %+v", r.VCI, r.M)
		}
		if r.M.Deny {
			t.Errorf("reply for VC %d denied", r.VCI)
		}
		if w, ok := want[r.VCI]; !ok || r.M.ER != w {
			t.Errorf("reply for VC %d carries %g, want %g", r.VCI, r.M.ER, w)
		}
		delete(want, r.VCI)
	}
	for vci, rate := range map[uint16]float64{1: 2e6, 2: 5e5, 3: 4e6, 4: 1e6} {
		if r, _ := s.VCRate(vci); r != rate {
			t.Errorf("VC %d rate = %g, want %g", vci, r, rate)
		}
	}
	st := s.Stats()
	if st.Batches != 1 || st.BatchCells != 5 {
		t.Errorf("batch stats = %d/%d, want 1/5", st.Batches, st.BatchCells)
	}
}

// TestHandleRMBatchSeqDupDrop shows a replayed batch (identical
// retransmission) is answered with current absolute rates, not re-applied.
func TestHandleRMBatchSeqDupDrop(t *testing.T) {
	s := batchSwitch(t)
	items := []RMItem{
		{VCI: 1, M: cell.RM{ER: 1e6, Seq: 5}},
		{VCI: 2, M: cell.RM{ER: 2e6, Seq: 5}},
	}
	first := s.HandleRMBatch(items, nil)
	replay := s.HandleRMBatch(items, nil)
	if len(first) != 2 || len(replay) != 2 {
		t.Fatalf("reply counts %d/%d, want 2/2", len(first), len(replay))
	}
	for i := range replay {
		if replay[i].M.ER != first[i].M.ER {
			t.Errorf("VC %d replay ER %g != first %g", replay[i].VCI, replay[i].M.ER, first[i].M.ER)
		}
		if replay[i].M.Deny {
			t.Errorf("VC %d replay marked deny; a duplicate drop is not a denial", replay[i].VCI)
		}
	}
	if r, _ := s.VCRate(1); r != 2e6 {
		t.Errorf("VC 1 rate %g after replay, want 2e6 (delta applied once)", r)
	}
	if st := s.Stats(); st.DupDrops != 2 {
		t.Errorf("dup drops = %d, want 2", st.DupDrops)
	}
}

// TestHandleRMBatchDeny confirms per-item capacity denial inside a batch.
func TestHandleRMBatchDeny(t *testing.T) {
	s := batchSwitch(t) // 8 MB/s reserved of 100 MB/s
	out := s.HandleRMBatch([]RMItem{
		{VCI: 1, M: cell.RM{ER: 200e6, Seq: 1}}, // exceeds capacity: denied
		{VCI: 2, M: cell.RM{ER: 1e6, Seq: 1}},   // fits: granted
	}, nil)
	if len(out) != 2 {
		t.Fatalf("got %d replies, want 2", len(out))
	}
	byVCI := map[uint16]cell.RM{}
	for _, r := range out {
		byVCI[r.VCI] = r.M
	}
	if m := byVCI[1]; !m.Deny || m.ER != 1e6 {
		t.Errorf("VC 1 reply %+v, want deny with old rate 1e6", m)
	}
	if m := byVCI[2]; m.Deny || m.ER != 2e6 {
		t.Errorf("VC 2 reply %+v, want grant of 2e6", m)
	}
}

// TestHandleRMBatchLong sends one batch longer than any bookkeeping word
// (more than 64 items), with VCs on several VPIs out of id order, and checks
// every entry is answered exactly once, in request order.
func TestHandleRMBatchLong(t *testing.T) {
	s := New()
	if err := s.AddPort(1, 1e9); err != nil {
		t.Fatal(err)
	}
	const n = 100
	items := make([]RMItem, 0, n)
	for i := 0; i < n; i++ {
		id := MakeVCID(uint8(i%3), uint16(n-i)) // descending VCIs, VPIs interleaved
		if err := s.SetupID(id, 1, 1e6); err != nil {
			t.Fatal(err)
		}
		items = append(items, RMItem{VPI: id.VPI(), VCI: id.VCI(), M: cell.RM{ER: 1e6, Seq: 1}})
	}
	out := s.HandleRMBatch(items, make([]RMItem, 0, n))
	if len(out) != n {
		t.Fatalf("got %d replies, want %d", len(out), n)
	}
	for i, r := range out {
		if r.VPI != items[i].VPI || r.VCI != items[i].VCI {
			t.Fatalf("reply %d is for VC %d.%d, request %d was for %d.%d", i, r.VPI, r.VCI, i, items[i].VPI, items[i].VCI)
		}
		if r.M.Deny || r.M.ER != 2e6 {
			t.Errorf("VC %d.%d reply %+v, want grant of 2e6", r.VPI, r.VCI, r.M)
		}
	}
	if st := s.Stats(); st.Grants != n || st.BatchCells != n {
		t.Errorf("stats %+v, want %d grants from one %d-cell batch", st, n, n)
	}
}

// TestBatchMetrics checks the batch counters are published.
func TestBatchMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(WithMetrics(reg))
	if err := s.AddPort(1, 1e9); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if err := s.Setup(uint16(i), 1, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	s.HandleRMBatch([]RMItem{
		{VCI: 1, M: cell.RM{ER: 1e6, Seq: 1}},
		{VCI: 2, M: cell.RM{ER: 1e6, Seq: 1}},
	}, nil)
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		MetricRMBatches:    1,
		MetricRMBatchCells: 2,
	} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("counter %s = %d (present=%v), want %d", name, got, ok, want)
		}
	}
}

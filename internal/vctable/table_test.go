package vctable

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTableMatchesMapModel drives the radix table and a plain map through
// the same random put / remove / re-put / get sequence and requires them to
// agree after every step, and a Range walk to visit exactly the model's
// entries in ascending id order. The id pool mixes a dense run, VCIs
// scattered over several VPIs, the all-ones VCID and ids wider than 24 bits
// (which name no VC), so pages are created, shared, emptied and created
// again.
func TestTableMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := []uint32{0, 0xFFFFFF, 0xFFFF00, 0x00FFFF, 1 << 24, 0xFFFFFFFF}
	for i := 0; i < 300; i++ {
		pool = append(pool, 3<<16|uint32(0x1000+i))
	}
	for i := 0; i < 64; i++ {
		pool = append(pool, uint32(rng.Intn(5)*63)<<16|uint32(rng.Intn(1<<16)))
	}

	type entry struct{ _ int }
	var tab Table[entry]
	model := make(map[uint32]*entry)
	check := func(step int, id uint32) {
		t.Helper()
		if got := tab.Get(id); got != model[id] {
			t.Fatalf("step %d: Get(%#x) = %p, model has %p", step, id, got, model[id])
		}
		if tab.Len() != len(model) {
			t.Fatalf("step %d: table counts %d entries, model %d", step, tab.Len(), len(model))
		}
	}
	checkRange := func(step int) {
		t.Helper()
		want := make([]uint32, 0, len(model))
		for id := range model {
			want = append(want, id)
		}
		slices.Sort(want)
		var got []uint32
		tab.Range(func(id uint32, e *entry) bool {
			if e != model[id] {
				t.Fatalf("step %d: Range visited %#x with %p, model has %p", step, id, e, model[id])
			}
			got = append(got, id)
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: Range visited %#x, model (ascending) has %#x", step, got, want)
		}
	}
	for step := 0; step < 20000; step++ {
		id := pool[rng.Intn(len(pool))]
		switch rng.Intn(3) {
		case 0:
			e := new(entry)
			_, taken := model[id]
			err := tab.Put(id, e)
			if want := !taken && id>>24 == 0; (err == nil) != want {
				t.Fatalf("step %d: Put(%#x) = %v, want success %v", step, id, err, want)
			}
			if err == nil {
				model[id] = e
			}
		case 1:
			if got := tab.Remove(id); got != model[id] {
				t.Fatalf("step %d: Remove(%#x) = %p, model has %p", step, id, got, model[id])
			}
			delete(model, id)
		}
		check(step, id)
		check(step, pool[rng.Intn(len(pool))])
		if step%500 == 0 {
			checkRange(step)
		}
	}
	checkRange(20000)

	// Range stops when told to.
	visits := 0
	tab.Range(func(uint32, *entry) bool { visits++; return visits < 3 })
	if len(model) >= 3 && visits != 3 {
		t.Fatalf("Range made %d visits after being stopped at 3", visits)
	}

	// Emptied pages are unlinked: a table with no entries holds no pages.
	for id := range model {
		tab.Remove(id)
	}
	for i := range tab.root.slots {
		if tab.root.slots[i].Load() != nil {
			t.Fatalf("VPI %d still holds a page after its last VC left", i)
		}
	}
}

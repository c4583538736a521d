package taxonomy

import (
	"reflect"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130) // forces a partial third word
	if len(b) != 3 {
		t.Fatalf("words = %d", len(b))
	}
	for _, id := range []uint32{0, 1, 63, 64, 127, 128, 129} {
		if b.Has(id) {
			t.Errorf("fresh set has bit %d", id)
		}
		b.Set(id)
		if !b.Has(id) {
			t.Errorf("Set(%d) did not stick", id)
		}
	}
	if b.Count() != 7 {
		t.Errorf("Count = %d, want 7", b.Count())
	}
	var got []uint32
	b.ForEach(func(id uint32) { got = append(got, id) })
	if !reflect.DeepEqual(got, []uint32{0, 1, 63, 64, 127, 128, 129}) {
		t.Errorf("ForEach order: %v", got)
	}
}

func TestBitsetAndClone(t *testing.T) {
	a := NewBitset(100)
	b := NewBitset(100)
	for _, id := range []uint32{3, 50, 64, 99} {
		a.Set(id)
	}
	for _, id := range []uint32{3, 64, 80} {
		b.Set(id)
	}
	c := a.Clone()
	c.And(b)
	if c.Count() != 2 || !c.Has(3) || !c.Has(64) {
		t.Errorf("intersection wrong: count=%d", c.Count())
	}
	// Clone isolated the original.
	if a.Count() != 4 {
		t.Errorf("And mutated the source clone's origin: %d", a.Count())
	}
	if n := a.AndCount(b); n != 2 {
		t.Errorf("AndCount = %d, want 2", n)
	}
	u := a.Clone()
	u.Or(b)
	if u.Count() != 5 || !u.Has(80) || !u.Has(50) {
		t.Errorf("union wrong: count=%d", u.Count())
	}
}

func TestFillBitset(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		b := fillBitset(n)
		if b.Count() != n {
			t.Errorf("fillBitset(%d).Count() = %d", n, b.Count())
		}
		if n > 0 && !b.Has(uint32(n-1)) {
			t.Errorf("fillBitset(%d) missing last bit", n)
		}
		// No stray bits past n: ForEach must stop at n-1.
		max := -1
		b.ForEach(func(id uint32) { max = int(id) })
		if max != n-1 {
			t.Errorf("fillBitset(%d) highest bit %d", n, max)
		}
	}
}

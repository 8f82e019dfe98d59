package slab

import "testing"

type item struct {
	s string
	n int
}

func TestResetZeroesAndReuses(t *testing.T) {
	var s Slab[item]
	first := make([]*item, 100)
	for i := range first {
		p := s.New()
		if *p != (item{}) {
			t.Fatalf("New %d handed out %+v, want zero", i, *p)
		}
		*p = item{"x", i}
		first[i] = p
	}
	s.Reset()
	for i := range first {
		p := s.New()
		if p != first[i] {
			t.Fatalf("after Reset, New %d is a fresh slot, want the recycled one", i)
		}
		if *p != (item{}) {
			t.Fatalf("recycled slot %d holds %+v, want zero", i, *p)
		}
	}
}

func TestMakeCapsItsCapacity(t *testing.T) {
	var s Slab[int]
	a := s.Make(3)
	b := s.Make(2)
	if cap(a) != 3 || cap(b) != 2 {
		t.Fatalf("caps %d, %d; want 3, 2", cap(a), cap(b))
	}
	_ = append(a, 9) // must move a, not overwrite b[0]
	if b[0] != 0 {
		t.Fatalf("append to one run wrote into the next: b[0] = %d", b[0])
	}
	if big := s.Make(5000); len(big) != 5000 {
		t.Fatalf("Make(5000) returned %d elements", len(big))
	}
}

func TestResetDropsOversizedChunks(t *testing.T) {
	var s Slab[int]
	for i := 0; i < 5000; i++ {
		*s.New() = i
	}
	s.Reset()
	total := 0
	for _, c := range s.chunks {
		if len(c) > maxKeptChunk {
			t.Errorf("kept a chunk of %d elements, limit %d", len(c), maxKeptChunk)
		}
		total += len(c)
		for i, v := range c {
			if v != 0 {
				t.Fatalf("kept chunk holds %d at %d after Reset", v, i)
			}
		}
	}
	if total == 0 {
		t.Error("Reset dropped every chunk, want the small ones kept")
	}
}

func TestSteadyStateAllocatesNothing(t *testing.T) {
	var s Slab[item]
	page := func() {
		s.Reset()
		for i := 0; i < 300; i++ {
			s.New().n = i
		}
		_ = s.Make(7)
	}
	page()
	if n := testing.AllocsPerRun(50, page); n != 0 {
		t.Errorf("a warmed slab allocated %.1f times a page, want 0", n)
	}
}

// Strings built in a Text share chunks and are never rewritten: every
// string still reads as it was built after many more, long ones
// included, are built after it.
func TestTextNeverRewrites(t *testing.T) {
	var txt Text
	var got, want []string
	for i := 0; i < 400; i++ {
		n := i % 37
		if i%50 == 0 {
			n = 700 // a string of its own
		}
		b := txt.Grow(n)
		for k := 0; k < n+i%3; k++ { // sometimes past Grow's room
			b = append(b, byte('a'+(i+k)%26))
		}
		got = append(got, txt.Take(b))
		want = append(want, string(b))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("string %d reads %q, was built as %q", i, got[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		b := txt.Grow(20)
		b = append(b, "0123456789abcdefghij"...)
		_ = txt.Take(b)
	})
	if allocs > 0.05 {
		t.Fatalf("%v allocs per 20-byte string, want one per %d-byte chunk", allocs, textChunk)
	}
}

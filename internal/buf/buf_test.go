package buf

import "testing"

func TestZeroedClearsReusedArray(t *testing.T) {
	s := []int{1, 2, 3, 4}
	got := Zeroed(s[:1], 3)
	if &got[0] != &s[0] {
		t.Fatal("Zeroed reallocated a large enough array")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("element %d = %d, want 0", i, v)
		}
	}
	if got := Zeroed(s, 9); len(got) != 9 || got[0] != 0 {
		t.Fatalf("Zeroed grown = %v", got)
	}
}

func TestGrowKeepsElements(t *testing.T) {
	if got := Grow[int](nil, 0); got == nil {
		t.Fatal("Grow(nil, 0) is nil; make would not be")
	}
	rows := [][]int{{1, 2}, {3}}
	grown := Grow(rows[:1], 3)
	if len(grown) != 3 || len(grown[1]) != 1 || grown[1][0] != 3 || grown[2] != nil {
		t.Fatalf("Grow = %v", grown)
	}
}

func TestRowsKeepCapacity(t *testing.T) {
	rows := [][]int{make([]int, 3, 8)}
	got := Rows(rows, 2)
	if len(got) != 2 || len(got[0]) != 0 || cap(got[0]) != 8 || got[1] != nil {
		t.Fatalf("Rows = %v (cap %d)", got, cap(got[0]))
	}
}

func TestListsCarveDisjointCappedLists(t *testing.T) {
	var l Lists[int]
	if got := l.Make(0); got != nil {
		t.Fatalf("Make(0) = %v, want nil", got)
	}
	a := l.Make(3)
	copy(a, []int{1, 2, 3})
	b := l.Make(2)
	copy(b, []int{4, 5})
	if len(a) != 3 || cap(a) != 3 || len(b) != 2 || cap(b) != 2 {
		t.Fatalf("lens/caps %d/%d and %d/%d", len(a), cap(a), len(b), cap(b))
	}
	grown := append(a, 9)
	if b[0] != 4 || &grown[0] == &a[0] {
		t.Fatalf("append to a list reached its neighbour: a %v b %v", grown, b)
	}
	// Filling the array starts a fresh one; earlier lists keep their values.
	for i := 0; i < listArray; i++ {
		l.Make(1)[0] = -1
	}
	if a[0] != 1 || a[2] != 3 || b[1] != 5 {
		t.Fatalf("earlier lists changed: a %v b %v", a, b)
	}
	if big := l.Make(listArray + 1); len(big) != listArray+1 {
		t.Fatalf("long list has length %d", len(big))
	}
}

func TestSlabFitsRows(t *testing.T) {
	fits := make([]int, 2, 5)
	rows := [][]int{fits, nil, {7}}
	lens := []int{4, 2, 3}
	var slab Slab[int]
	for i, n := range lens {
		slab.Need(rows[i], n)
	}
	for i, n := range lens {
		rows[i] = slab.Fit(rows[i], n)
	}
	if len(rows[0]) != 4 || &rows[0][0] != &fits[0] {
		t.Fatal("a row that holds its length did not keep its array")
	}
	for i := 1; i < 3; i++ {
		if len(rows[i]) != lens[i] || cap(rows[i]) != lens[i] {
			t.Fatalf("carved row %d has length %d, capacity %d, want %d", i, len(rows[i]), cap(rows[i]), lens[i])
		}
	}
	copy(rows[1], []int{1, 2})
	copy(rows[2], []int{3, 4, 5})
	if grown := append(rows[1], 9); &grown[0] == &rows[1][0] || rows[2][0] != 3 {
		t.Fatalf("an append to a carved row reached its neighbour: %v", rows[2])
	}
	if got := slab.Fit(nil, 0); got != nil {
		t.Fatalf("Fit(nil, 0) = %v, want nil", got)
	}

	// Refitting the same lengths allocates nothing.
	refit := func() {
		var slab Slab[int]
		for i, n := range lens {
			slab.Need(rows[i], n)
		}
		for i, n := range lens {
			rows[i] = slab.Fit(rows[i], n)
		}
	}
	if avg := testing.AllocsPerRun(100, refit); avg != 0 {
		t.Fatalf("a warm refit allocates %.1f times, want 0", avg)
	}
	// A longer row moves alone, and its neighbours keep their arrays.
	first := &rows[1][0]
	lens[2] = 6
	refit()
	if len(rows[2]) != 6 || cap(rows[2]) != 6 || &rows[1][0] != first {
		t.Fatalf("after a row grew: lengths %d/%d, row 1 moved: %v", len(rows[2]), cap(rows[2]), &rows[1][0] != first)
	}
}

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

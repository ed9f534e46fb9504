package mmd

import (
	"math/bits"
	"slices"
	"testing"
)

// refSet is a set of streams 0–255, FuzzAssignmentOps's reference for
// one user's set.
type refSet [4]uint64

func (r *refSet) has(s int) bool { return s >= 0 && s < 256 && r[s/64]&(1<<(s%64)) != 0 }
func (r *refSet) add(s int)      { r[s/64] |= 1 << (s % 64) }
func (r *refSet) remove(s int)   { r[s/64] &^= 1 << (s % 64) }

func (r *refSet) size() int {
	n := 0
	for _, w := range r {
		n += bits.OnesCount64(w)
	}
	return n
}

// matches reports whether sorted lists exactly the set, in increasing
// order without duplicates.
func (r *refSet) matches(sorted []int) bool {
	for i, s := range sorted {
		if !r.has(s) || (i > 0 && sorted[i-1] >= s) {
			return false
		}
	}
	return len(sorted) == r.size()
}

// Assignment operations, one byte each, followed by their arguments.
const (
	opAdd      = iota // assignment, user, stream
	opRemove          // assignment, user, stream
	opReset           // assignment, users
	opCopyFrom        // assignment, source
	opRestrict        // assignment, predicate seed
	opClone           // assignment, source
	opFill            // assignment, users, streams, order
	numOps
)

// maxFuzzUsers caps the users a Reset gives an assignment, and
// maxFuzzOps the operations one input runs, each checked in full.
const (
	maxFuzzUsers = 40
	maxFuzzOps   = 256
)

// fill resets a to users users and gives every user each of streams
// streams, stream by stream, in ascending order or, when descending,
// in descending order.
func fill(a *Assignment, users, streams int, descending bool) {
	a.Reset(users)
	for i := 0; i < streams; i++ {
		s := i
		if descending {
			s = streams - 1 - i
		}
		for u := 0; u < users; u++ {
			a.Add(u, s)
		}
	}
}

// FuzzAssignmentOps runs random Add, Remove, Reset, CopyFrom, Restrict,
// Clone and fill sequences on three assignments and compares them with a
// reference set per user after every operation: each user's set is
// sorted without duplicates, and the range, its size, InRange, the
// pair count and Equal agree with the reference. Every user's UserView
// taken before the operation must be unchanged unless the operation
// changed that user, so no two users' sets share writable memory.
func FuzzAssignmentOps(f *testing.F) {
	f.Add([]byte{opAdd, 0, 1, 5, opAdd, 0, 1, 2, opAdd, 0, 2, 5, opCopyFrom, 1, 0, opRemove, 0, 1, 5, opAdd, 1, 0, 9})
	f.Add([]byte{opReset, 0, 5, opAdd, 0, 4, 3, opClone, 2, 0, opAdd, 2, 4, 1, opRestrict, 2, 3, opReset, 2, 1})
	// 40 users, 120 streams: churn-resolve's head-end. Assignment 1's
	// first user holds a row too short for the copy it then takes.
	f.Add([]byte{opAdd, 1, 0, 5, opFill, 0, maxFuzzUsers, 120, 0,
		opCopyFrom, 1, 0, opRestrict, 0, 4, opAdd, 1, 7, 200, opClone, 2, 1, opRemove, 2, 0, 0})
	f.Add([]byte{opFill, 0, maxFuzzUsers, 120, 1,
		opRestrict, 0, 1, opCopyFrom, 2, 0, opAdd, 2, 39, 250, opReset, 0, 40, opAdd, 0, 3, 0})

	f.Fuzz(func(t *testing.T, ops []byte) {
		var as [3]*Assignment
		var refs [3][]refSet
		for k := range as {
			as[k], refs[k] = NewAssignment(3), make([]refSet, 3)
		}
		arg := func(i int) int {
			if i < len(ops) {
				return int(ops[i])
			}
			return 0
		}
		// views[j][u] is user u's view of assignment j before an
		// operation, and before[j] their contents, one after another.
		var views [3][][]int
		var before [3][]int
		for i, n := 0, 0; i < len(ops) && n < maxFuzzOps; n++ {
			for j, a := range as {
				views[j], before[j] = views[j][:0], before[j][:0]
				for u := 0; u < a.NumUsers(); u++ {
					views[j] = append(views[j], a.UserView(u))
					before[j] = append(before[j], a.UserView(u)...)
				}
			}
			op, k := int(ops[i])%numOps, arg(i+1)%len(as)
			a, ref := as[k], refs[k]
			changed := func(j, u int) bool { return j == k } // the whole assignment
			switch op {
			case opAdd, opRemove:
				user, s := arg(i+2), arg(i+3)
				i += 4
				if a.NumUsers() == 0 {
					continue
				}
				user %= a.NumUsers()
				if op == opAdd {
					a.Add(user, s)
					ref[user].add(s)
				} else {
					a.Remove(user, s)
					ref[user].remove(s)
				}
				changed = func(j, u int) bool { return j == k && u == user }
			case opReset:
				n := arg(i+2) % (maxFuzzUsers + 1)
				i += 3
				a.Reset(n)
				refs[k] = make([]refSet, n)
			case opCopyFrom:
				src := arg(i+2) % len(as)
				i += 3
				a.CopyFrom(as[src])
				refs[k] = slices.Clone(refs[src])
			case opRestrict:
				seed := arg(i + 2)
				i += 3
				keep := func(u, s int) bool { return (u*7+s*13+seed)%5 != 0 }
				a.Restrict(keep)
				for u := range ref {
					for s := 0; s < 256; s++ {
						if !keep(u, s) {
							ref[u].remove(s)
						}
					}
				}
			case opFill:
				users, streams, descending := arg(i+2)%(maxFuzzUsers+1), arg(i+3), arg(i+4)%2 == 1
				i += 5
				fill(a, users, streams, descending)
				refs[k] = make([]refSet, users)
				for u := range refs[k] {
					for s := 0; s < streams; s++ {
						refs[k][u].add(s)
					}
				}
			case opClone:
				src := arg(i+2) % len(as)
				i += 3
				as[k], refs[k] = as[src].Clone(), slices.Clone(refs[src])
				// The replaced assignment's memory is left as it was.
				changed = func(int, int) bool { return false }
			}
			for j := range as {
				rest := before[j]
				for u, view := range views[j] {
					want := rest[:len(view)]
					rest = rest[len(view):]
					if !changed(j, u) && !slices.Equal(view, want) {
						t.Fatalf("op %d on assignment %d before byte %d changed assignment %d user %d's set from %v to %v",
							op, k, i, j, u, want, view)
					}
				}
			}
			for j := range as {
				checkAgainstRef(t, as[j], refs[j])
				for l := range as {
					if got, want := as[j].Equal(as[l]), slices.Equal(refs[j], refs[l]); got != want {
						t.Fatalf("assignments %d and %d: Equal = %v, want %v", j, l, got, want)
					}
				}
			}
		}
	})
}

// checkAgainstRef compares every read of a with the reference.
func checkAgainstRef(t *testing.T, a *Assignment, ref []refSet) {
	t.Helper()
	if a.NumUsers() != len(ref) {
		t.Fatalf("NumUsers = %d, want %d", a.NumUsers(), len(ref))
	}
	var union refSet
	pairs := 0
	for u := range ref {
		if view := a.UserView(u); !ref[u].matches(view) {
			t.Fatalf("user %d holds %v, want the set %x, sorted without duplicates", u, view, ref[u])
		}
		for w := range union {
			union[w] |= ref[u][w]
		}
		pairs += ref[u].size()
	}
	if r := a.RangeView(); !union.matches(r) || a.RangeSize() != len(r) {
		t.Fatalf("RangeView = %v (RangeSize %d), want the set %x", r, a.RangeSize(), union)
	}
	if a.Pairs() != pairs {
		t.Fatalf("Pairs = %d, want %d", a.Pairs(), pairs)
	}
	for s := -1; s <= 256; s++ {
		if a.InRange(s) != union.has(s) {
			t.Fatalf("InRange(%d) = %v, want %v", s, a.InRange(s), union.has(s))
		}
	}
}

// Package buf holds the slice helpers the solver workspaces reuse their
// buffers with: a workspace that sizes its scratch through them
// allocates only while an instance is larger than any it has seen, and
// nothing once warm. Slab lays a structure's rows out in one array
// instead of one each. Lists is the serving path's counterpart for
// lists that outlive the call that makes them.
package buf

// Zeroed returns s with length n and every element zero, reusing s's
// array when it is large enough.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Grow returns s with length n, reusing its array when it is large
// enough. Reused elements keep their values, so buffers they hold stay
// available for reuse; elements past the old capacity are zero. A nil s
// gets a fresh array, so growing a zero value matches make.
func Grow[T any](s []T, n int) []T {
	switch {
	case s == nil:
		return make([]T, n)
	case cap(s) < n:
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// Rows returns rows with length n and every row empty, keeping each
// reused row's capacity.
func Rows[T any](rows [][]T, n int) [][]T {
	rows = Grow(rows, n)
	for i := range rows {
		rows[i] = rows[i][:0]
	}
	return rows
}

// Carve returns the first n elements of *slab, capped at n, and moves
// *slab past them: rows carved one after another share one array but
// no element, and an append to a carved row copies it. n == 0 gives
// nil.
func Carve[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	row := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return row
}

// Slab lays out the rows of one structure — a list per stream, a float
// row per user — in one array instead of one array per row. A counting
// pass tells it, row by row, the length each row must have (Need); the
// fill then takes each row from it (Fit), with the same rows and
// lengths. A row whose array already holds its length keeps it; every
// other row is carved, capped at its length, from one array sized to
// all of them, so an append to a carved row copies it instead of
// writing its neighbour. Building a structure costs one allocation, and
// rebuilding it allocates nothing until some row's length outgrows its
// array; then only the rows that outgrew theirs move, to a fresh array.
// The zero value is ready; a Slab serves one counting pass and its fill.
type Slab[T any] struct {
	need int // elements Need counted for rows that do not hold them
	rest []T // the array's part that Fit has not carved yet
}

// Need records that row is to have length n.
func (s *Slab[T]) Need(row []T, n int) {
	if cap(row) < n {
		s.need += n
	}
}

// Fit returns row with length n: row itself when its array holds n,
// otherwise a row carved from the slab's array, which the first such
// row makes. n == 0 leaves a nil row nil.
func (s *Slab[T]) Fit(row []T, n int) []T {
	if cap(row) >= n {
		return row[:n]
	}
	if len(s.rest) < n {
		s.rest = make([]T, max(s.need, n))
		s.need = 0
	}
	return Carve(&s.rest, n)
}

// Lists hands out lists that outlive the call making them — a ticket's
// sharers, a stream's subscribers — carved from shared arrays instead
// of one allocation each. Every list is a capacity-capped slice of an
// array no later call hands out again, so whoever holds a list may keep
// it for as long as it likes, and an append to it copies. A full array
// is left to the lists still pointing into it, and the next list starts
// a fresh one. The zero value is ready and allocates nothing until its
// first list; a Lists is not safe for concurrent use.
type Lists[T any] struct{ rest []T }

// listArray is the length of the arrays Lists carves from: small next
// to a server's heap even when every array is pinned by one long-lived
// list, and long enough to hold many short ones. A longer list gets an
// array of its own.
const listArray = 256

// Make returns a new list of length n, nil when n is 0, for the caller
// to fill before handing it out.
func (l *Lists[T]) Make(n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(l.rest) {
		if n > listArray {
			return make([]T, n)
		}
		l.rest = make([]T, listArray)
	}
	s := l.rest[:n:n]
	l.rest = l.rest[n:]
	return s
}

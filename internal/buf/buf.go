// Package buf holds the slice helpers the solver workspaces reuse their
// buffers with: a workspace that sizes its scratch through them
// allocates only while an instance is larger than any it has seen, and
// nothing once warm.
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

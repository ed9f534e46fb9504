package headend

import (
	"fmt"
	"slices"
)

// CheckListStorage checks the rules the tenant keeps its subscriber
// lists by, for tests that drive a tenant from outside the package.
// returned holds the address of every element of every list a step has
// returned, and longest[s] the longest list the tenant has carried for
// stream s, which the check raises to what is carried now. It returns
// the first rule broken, or nil:
//   - each carried list is its stream's holders in the assignment, in
//     increasing order, and every stream with a holder is carried;
//   - no two carried lists share memory;
//   - a carried list that is not the tenant's own lies wholly in memory
//     a step returned, and the tenant's own storage shares none with
//     any returned list;
//   - own[s] holds no more than the longest list the tenant has carried
//     for s, so the storage is bounded by what the tenant carried.
func (t *Tenant) CheckListStorage(returned map[*int]bool, longest []int) error {
	for _, s := range t.assn.RangeView() {
		if _, ok := t.live[s]; !ok {
			return fmt.Errorf("stream %d has holders but is not carried", s)
		}
	}
	var holders []int
	carrier := make(map[*int]int)
	for s, list := range t.live {
		holders = holders[:0]
		for u := 0; u < t.assn.NumUsers(); u++ {
			if t.assn.Has(u, s) {
				holders = append(holders, u)
			}
		}
		if !slices.Equal(list, holders) {
			return fmt.Errorf("stream %d carries %v, but its holders are %v", s, list, holders)
		}
		owned := t.owns(s, list)
		full := list[:cap(list)]
		for i := range full {
			p := &full[i]
			if other, ok := carrier[p]; ok {
				return fmt.Errorf("the lists of streams %d and %d share memory", other, s)
			}
			carrier[p] = s
			if !owned && !returned[p] {
				return fmt.Errorf("stream %d's list is neither the tenant's own nor a returned list", s)
			}
		}
		longest[s] = max(longest[s], len(list))
	}
	for s, own := range t.own {
		if len(own) > longest[s] {
			return fmt.Errorf("stream %d's own storage holds %d ints, but the longest list carried for it held %d", s, len(own), longest[s])
		}
		for i := range own {
			if returned[&own[i]] {
				return fmt.Errorf("stream %d's own storage shares memory with a returned list", s)
			}
		}
	}
	return nil
}

// sorted-iteration fixture: map ranges with order-sensitive effects must
// be guarded by the collect-then-sort idiom; pure reductions stay silent.
package sortiter

import (
	"fmt"
	"io"
	"sort"

	"telemetry"
)

// KeysSorted is the sanctioned idiom: collect, then sort.
func KeysSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// KeysUnsorted leaks map order into the returned slice.
func KeysUnsorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // want "sorted-iteration: map range appends to .keys. without a later sort"
		keys = append(keys, k)
	}
	return keys
}

// Emit writes in map order — no later sort can repair that.
func Emit(w io.Writer, m map[string]int) {
	for k, v := range m { // want "sorted-iteration: map range writes output via fmt.Fprintf"
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// Count mutates telemetry per key in map order.
func Count(reg *telemetry.Registry, m map[string]int) {
	c := reg.Counter("lint.fixture.count")
	for range m { // want "sorted-iteration: map range mutates telemetry via c.Inc"
		c.Inc()
	}
}

// Dispatch hands work to a channel in map order: the consumer sees a
// different sequence every run.
func Dispatch(jobs chan<- string, m map[string]int) {
	for k := range m { // want "sorted-iteration: map range sends on a channel in map order"
		jobs <- k
	}
}

// Spawn starts one goroutine per key in map order.
func Spawn(m map[string]int, work func(string)) {
	for k := range m { // want "sorted-iteration: map range starts goroutines in map order"
		go work(k)
	}
}

// Sum is an order-insensitive reduction: silent.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// LocalScratch appends only to a slice declared inside the loop: silent.
func LocalScratch(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// SliceSorted uses sort.Slice with a closure referencing the target.
func SliceSorted(m map[int]string) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// Package mapout is a maporder fixture: map ranges feeding ordered
// sinks (float sums among them) are flagged; the sorted-keys idiom,
// map-to-map accumulation, and integer reductions are not.
package mapout

import (
	"fmt"
	"sort"
	"strings"
)

func printUnsorted(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "fmt.Println inside map iteration"
	}
}

func appendUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "append inside map iteration"
	}
	return out
}

func sendUnsorted(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want "channel send inside map iteration"
	}
}

func writeUnsorted(m map[string]int, sb *strings.Builder) {
	for k := range m {
		sb.WriteString(k) // want "WriteString call inside map iteration"
	}
}

// sortedKeys is the sanctioned idiom: the accumulated slice is sorted
// after the loop, so the append is order-free.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// invert appends into map elements: the destination is itself
// unordered, so nothing leaks.
func invert(m map[string]int) map[int][]string {
	inv := map[int][]string{}
	for k, v := range m {
		inv[v] = append(inv[v], k)
	}
	return inv
}

// total is an order-independent reduction: integer addition is
// associative, so it is not flagged.
func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// floatTotal rounds differently with the order of its terms.
func floatTotal(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want "float [+]= inside map iteration"
	}
	return sum
}

// floatTotalSorted sums over sorted keys: the order is fixed.
func floatTotalSorted(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

func printAllowed(m map[string]int) {
	for k := range m {
		fmt.Println(k) //schedlint:allow maporder fixture: order-insensitive debug dump
	}
}

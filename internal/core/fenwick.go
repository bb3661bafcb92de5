package core

import "math"

// This file is the accumulator layer of the incremental multiprefix
// (DESIGN.md §14): per-plan Fenwick (binary-indexed) trees over the
// counting-sort order of the labels, so a stateful Plan can maintain
// point updates in O(log n) instead of re-running the whole O(n)
// pipeline. The idea follows Brodnik et al.'s prefix-sum-under-update
// line of work (PAPERS.md): prefix state is cheap to *maintain* when
// the operator is invertible, and a stable counting sort of the labels
// (BuildSortedIndexInto, at the end of this file) makes every
// per-label prefix a difference of two whole-array prefixes.
//
// The kernels are monomorphic (int64 / float64) like the fast-op
// kernels in fastpath.go: the backend dispatches with the
// allocation-free any(x).(T) idiom. All of them use the classic
// 1-based tree addressing internally but expose 0-based positions, so
// callers never see the off-by-one.
//
// # Exactness
//
// int64 addition is associative mod 2^64, so a Fenwick-maintained sum
// is bit-identical to the serial left-to-right sum under any update
// history, overflow included.
//
// float64 addition is NOT associative, and per-operation exactness
// checks are insufficient: a serial left-to-right sum can round where
// the tree's dyadic association happens to stay exact, so "every tree
// add was exact" does not imply "equal to recompute". The usable
// guarantee is an envelope: if every resident value is an integer-
// valued float with |v| <= 2^52/n, then every partial sum of any
// subset, in any association order, is an integer of magnitude
// <= 2^52 — exactly representable, hence order-independent, hence
// bit-identical to the serial recompute. FenwickFloat64Bound derives
// the envelope; the backend drops to the full re-run tier the moment
// a resident value leaves it.

// FenwickBuildInt64 builds the Fenwick tree over vals into tree (both
// len n) in O(n): tree[k] covers vals[k-lowbit(k+1)+1 .. k].
//
//mp:hotpath
func FenwickBuildInt64(tree, vals []int64) {
	n := len(tree)
	copy(tree, vals)
	for i := 1; i <= n; i++ {
		if j := i + i&(-i); j <= n {
			tree[j-1] += tree[i-1]
		}
	}
}

// FenwickGatherBuildInt64 builds the tree over the permuted view
// vals[perm[k]] — the counting-sort order the plan already owns — in
// one gather + build pass, no scratch.
//
//mp:hotpath
func FenwickGatherBuildInt64(tree, vals []int64, perm []int32) {
	n := len(tree)
	for k, p := range perm {
		tree[k] = vals[p]
	}
	for i := 1; i <= n; i++ {
		if j := i + i&(-i); j <= n {
			tree[j-1] += tree[i-1]
		}
	}
}

// FenwickAddInt64 adds delta at 0-based position pos in O(log n).
//
//mp:hotpath
func FenwickAddInt64(tree []int64, pos int, delta int64) {
	n := len(tree)
	for i := pos + 1; i <= n; i += i & (-i) {
		tree[i-1] += delta
	}
}

// FenwickPrefixInt64 returns the sum of the first k values (positions
// 0 .. k-1) in O(log n).
//
//mp:hotpath
func FenwickPrefixInt64(tree []int64, k int) int64 {
	var s int64
	for i := k; i > 0; i -= i & (-i) {
		s += tree[i-1]
	}
	return s
}

// FenwickBuildFloat64 is FenwickBuildInt64 at float64. Exactness (and
// therefore bit-identity with the serial order) is the caller's
// obligation via the FenwickFloat64Bound envelope.
//
//mp:hotpath
func FenwickBuildFloat64(tree, vals []float64) {
	n := len(tree)
	copy(tree, vals)
	for i := 1; i <= n; i++ {
		if j := i + i&(-i); j <= n {
			tree[j-1] += tree[i-1]
		}
	}
}

// FenwickGatherBuildFloat64 is FenwickGatherBuildInt64 at float64.
//
//mp:hotpath
func FenwickGatherBuildFloat64(tree, vals []float64, perm []int32) {
	n := len(tree)
	for k, p := range perm {
		tree[k] = vals[p]
	}
	for i := 1; i <= n; i++ {
		if j := i + i&(-i); j <= n {
			tree[j-1] += tree[i-1]
		}
	}
}

// FenwickAddFloat64 is FenwickAddInt64 at float64.
//
//mp:hotpath
func FenwickAddFloat64(tree []float64, pos int, delta float64) {
	n := len(tree)
	for i := pos + 1; i <= n; i += i & (-i) {
		tree[i-1] += delta
	}
}

// FenwickPrefixFloat64 is FenwickPrefixInt64 at float64.
//
//mp:hotpath
func FenwickPrefixFloat64(tree []float64, k int) float64 {
	var s float64
	for i := k; i > 0; i -= i & (-i) {
		s += tree[i-1]
	}
	return s
}

// FenwickFloat64Bound returns the per-value magnitude bound of the
// exact float64 envelope for n resident values: while every value is
// integer-valued with |v| <= bound, every partial sum of every subset
// is an integer of magnitude <= 2^52 in any association order, so
// Fenwick answers are bit-identical to the serial recompute.
func FenwickFloat64Bound(n int) float64 {
	if n < 1 {
		n = 1
	}
	return math.Ldexp(1, 52) / float64(n)
}

// FenwickFloat64Safe reports whether v stays inside the exact
// envelope: an integer-valued float with |v| <= bound. NaN and Inf
// fail the comparison and are rejected.
func FenwickFloat64Safe(v, bound float64) bool {
	return v == math.Trunc(v) && v >= -bound && v <= bound
}

// BuildSortedIndexInto fills perm (len n) and start (len m+1) with the
// stable counting sort of labels, allocation-free: label l's elements
// are perm[start[l]:start[l+1]], in vector order, and start[m] == n.
// This is the order the Fenwick trees above are laid out in. Labels
// must already be validated against m = len(start)-1 and n must fit
// int32.
//
// The placement pass walks the input backwards with the run-end
// cursors stored in start itself, so no separate cursor array is
// needed; decrementing end cursors while iterating backwards assigns
// the last occurrence the last slot, which is exactly stability.
func BuildSortedIndexInto(perm, start []int32, labels []int) {
	m := len(start) - 1
	clear(start)
	for _, l := range labels {
		start[l]++
	}
	var sum int32
	for l := 0; l < m; l++ {
		sum += start[l]
		start[l] = sum // end of run l
	}
	start[m] = sum // == n
	for i := len(labels) - 1; i >= 0; i-- {
		l := labels[i]
		start[l]--
		perm[start[l]] = int32(i)
	}
	// start[l] has been decremented back to the begin of run l.
}

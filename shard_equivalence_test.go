package renum

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/shuffle"
)

// shardKs is the partition-count matrix the shard suites run: degenerate
// (K=1), even (K=2), and odd-with-remainder (K=7) splits.
var shardKs = []int{1, 2, 7}

// TestShardedEquivalence proves a fleet of K SliceView shards equivalent to
// the whole handle, position for position, on every golden instance (unions
// included): each shard holds the exact window [iN/K, (i+1)N/K), the windows
// tile [0, N), and All, AccessBatch, Shuffled and SampleN on a shard answer
// what the whole handle answers at the shard's global positions. The window
// costs time, never memory: AccessInto through SliceView(·, 1, 4) allocates
// nothing.
func TestShardedEquivalence(t *testing.T) {
	for _, gi := range goldenInstances(t) {
		ref := mustOpen(t, gi.db, gi.q, gi.opts...)
		n := ref.Count()
		for _, k := range shardKs {
			t.Run(fmt.Sprintf("%s/K=%d", gi.name, k), func(t *testing.T) {
				var lo int64
				for i := 0; i < k; i++ {
					sl, err := SliceView(ref, i, k)
					if err != nil {
						t.Fatalf("SliceView(%d, %d): %v", i, k, err)
					}
					if lo != int64(i)*n/int64(k) || sl.Count() != int64(i+1)*n/int64(k)-lo {
						t.Fatalf("shard %d/%d holds [%d, %d), want the exact window [%d, %d)",
							i, k, lo, lo+sl.Count(), int64(i)*n/int64(k), int64(i+1)*n/int64(k))
					}
					assertWindowEquivalence(t, ref, sl, lo)
					lo += sl.Count()
				}
				if lo != n {
					t.Fatalf("shards cover %d positions, want %d", lo, n)
				}
			})
		}
		t.Run(gi.name+"/K=4/AccessIntoAllocs", func(t *testing.T) {
			sl, err := SliceView(ref, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			answer := make(Tuple, len(sl.Head()))
			// One run probes every position: AllocsPerRun rounds its average down.
			if allocs := testing.AllocsPerRun(10, func() {
				for j := int64(0); j < sl.Count(); j++ {
					if err := sl.AccessInto(j, answer); err != nil {
						t.Fatal(err)
					}
				}
			}); allocs != 0 {
				t.Fatalf("AccessInto through SliceView(·, 1, 4): %.0f allocations over %d probes, want 0", allocs, sl.Count())
			}
		})
	}
}

// assertWindowEquivalence drives sl — the window of ref that starts at
// global position lo — through the ordered probes and requires each to
// answer, byte for byte, what ref answers at the same global positions.
func assertWindowEquivalence(t *testing.T, ref, sl *Handle, lo int64) {
	t.Helper()
	n := sl.Count()
	if n == 0 {
		t.Fatalf("empty window at %d: the fixture is too small for the K matrix", lo)
	}
	if hw, hg := ref.Head(), sl.Head(); strings.Join(hw, ",") != strings.Join(hg, ",") {
		t.Fatalf("Head = %v, want %v", hg, hw)
	}
	// at returns ref's answers at the window positions js, formatted.
	at := func(js []int64) []string {
		global := make([]int64, len(js))
		for i, j := range js {
			global[i] = lo + j
		}
		ts, err := ref.AccessBatch(global)
		if err != nil {
			t.Fatal(err)
		}
		return formatAll(ts)
	}
	same := func(probe string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s yielded %d answers, want %d", probe, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %s, want %s", probe, i, got[i], want[i])
			}
		}
	}

	// All(): the window, in order.
	var all []Tuple
	for tu, err := range sl.All() {
		if err != nil {
			t.Fatalf("All()[%d]: %v", len(all), err)
		}
		all = append(all, tu)
	}
	same("All()", formatAll(all), at(positions(0, n)))

	// AccessBatch over random positions, with duplicates.
	rng := rand.New(rand.NewSource(17))
	js := make([]int64, 700)
	for i := range js {
		js[i] = rng.Int63n(n)
	}
	batch, err := sl.AccessBatch(js)
	if err != nil {
		t.Fatalf("AccessBatch: %v", err)
	}
	same("AccessBatch", formatAll(batch), at(js))

	// Shuffled and SampleN are Theorem 3.7 over the window's own count:
	// the same seed draws the same local positions the bare shuffle does.
	same("Shuffled", drainShuffled(t, sl, 99), at(shuffled(n, 99)))
	smp, err := sl.Sampler()
	if err != nil {
		t.Fatalf("Sampler: %v", err)
	}
	if !smp.Distinct() {
		t.Fatal("a shard's sampler must be distinct")
	}
	drawn, err := smp.SampleN(n/2+1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("SampleN: %v", err)
	}
	same("SampleN", formatAll(drawn), at(shuffled(n, 3)[:n/2+1]))

	// Out-of-bounds parity: the window's edges are the handle's edges.
	if _, err := sl.Access(n); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("Access(n) error = %v, want ErrOutOfBounds", err)
	}
	if _, err := sl.Access(-1); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("Access(-1) error = %v, want ErrOutOfBounds", err)
	}
	if _, err := sl.AccessBatch([]int64{0, -1}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("negative batch error = %v, want ErrOutOfBounds", err)
	}
	if _, err := sl.AccessBatch([]int64{0, n}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("batch past the window error = %v, want ErrOutOfBounds", err)
	}
}

// positions returns lo, lo+1, …, hi-1.
func positions(lo, hi int64) []int64 {
	js := make([]int64, 0, hi-lo)
	for j := lo; j < hi; j++ {
		js = append(js, j)
	}
	return js
}

// shuffled returns the order Theorem 3.7's shuffle of n positions draws
// under seed.
func shuffled(n, seed int64) []int64 {
	return shuffle.New(n, rand.New(rand.NewSource(seed))).Draw(nil, n)
}

func formatAll(ts []Tuple) []string {
	out := make([]string, len(ts))
	for i, tu := range ts {
		out[i] = string(formatAnswer(nil, tu))
	}
	return out
}

func drainShuffled(t *testing.T, h *Handle, seed int64) []string {
	t.Helper()
	var out []string
	var buf []byte
	for tu, err := range h.Shuffled(rand.New(rand.NewSource(seed))) {
		if err != nil {
			t.Fatal(err)
		}
		buf = formatAnswer(buf, tu)
		out = append(out, string(buf))
	}
	return out
}

// TestSliceViewEquivalence pins what a shard answers about tuples, on every
// golden instance: a SliceView window is transparent (it reports the Kind of
// the handle it cuts), and its InvertedAccess and Contains are confined to
// its own positions — every answer of the whole handle is claimed, at its
// local position, by exactly the window holding it. A union's window has
// neither: the union index has no inverse, and its membership test cannot
// tell one window from another.
func TestSliceViewEquivalence(t *testing.T) {
	for _, k := range shardKs {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			for _, gi := range goldenInstances(t) {
				t.Run(gi.name, func(t *testing.T) {
					ref := mustOpen(t, gi.db, gi.q, gi.opts...)
					n := ref.Count()
					for i := 0; i < k; i++ {
						sl, err := SliceView(ref, i, k)
						if err != nil {
							t.Fatalf("SliceView(%d, %d): %v", i, k, err)
						}
						if sl.Kind() != ref.Kind() {
							t.Fatalf("slice Kind = %s, want %s (slices are transparent)", sl.Kind(), ref.Kind())
						}
						inv, ierr := sl.Inverter()
						cont, cerr := sl.Container()
						if !ref.Has(CapInvert) {
							if !IsUnsupported(ierr) || !IsUnsupported(cerr) {
								t.Fatalf("window of a %s handle: Inverter err %v, Container err %v; want ErrUnsupported", ref.Kind(), ierr, cerr)
							}
							continue
						}
						if ierr != nil || cerr != nil {
							t.Fatalf("window Inverter err %v, Container err %v", ierr, cerr)
						}
						lo, hi := int64(i)*n/int64(k), int64(i+1)*n/int64(k)
						for p := int64(0); p < n; p++ {
							tu, err := ref.Access(p)
							if err != nil {
								t.Fatal(err)
							}
							in := lo <= p && p < hi
							if lj, ok := inv.InvertedAccess(tu); ok != in || in && lj != p-lo {
								t.Fatalf("slice %d InvertedAccess(answer %d) = (%d, %v), want in-window %v at %d", i, p, lj, ok, in, p-lo)
							}
							if cont.Contains(tu) != in {
								t.Fatalf("slice %d Contains(answer %d) = %v, want %v", i, p, !in, in)
							}
						}
					}
				})
			}
		})
	}
}

// TestShardOptionRejections pins what SliceView refuses, and the capability
// set a shard reports: everything the CQ backend has except snapshotting.
func TestShardOptionRejections(t *testing.T) {
	var cq goldenInstance
	for _, gi := range goldenInstances(t) {
		if _, ok := gi.q.(*CQ); ok {
			cq = gi
			break
		}
	}
	h := mustOpen(t, cq.db, cq.q)
	if _, err := SliceView(h, 2, 2); err == nil {
		t.Fatal("SliceView(2, 2) accepted an out-of-range slice")
	}
	if _, err := SliceView(h, 0, 0); err == nil {
		t.Fatal("SliceView(0, 0) accepted an empty partition")
	}
	if _, err := SliceView(nil, 0, 1); err == nil {
		t.Fatal("SliceView(nil) accepted")
	}
	// Positions shift under updates, so a dynamic handle has no window.
	if _, err := SliceView(mustOpen(t, cq.db, cq.q, WithDynamic()), 0, 2); !IsUnsupported(err) {
		t.Fatalf("SliceView over a dynamic handle: err = %v, want ErrUnsupported", err)
	}
	sl, err := SliceView(h, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sl.Has(CapSnapshot) {
		t.Fatal("a shard claims CapSnapshot")
	}
	for _, c := range []Capability{CapEnumerate, CapInvert, CapSample, CapContains, CapExplain} {
		if !sl.Has(c) {
			t.Fatalf("a shard lacks %s", c)
		}
	}
	if _, err := sl.Explain(); err != nil {
		t.Fatalf("shard Explain: %v", err)
	}
}

package renum

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/synth"
)

// shardKs is the partition-count matrix the equivalence suite runs:
// degenerate (K=1), even (K=2), and odd-with-remainder (K=7) splits.
var shardKs = []int{1, 2, 7}

// TestShardedEquivalence proves the sharded backend byte-identical to the
// unsharded one across the whole probe surface: Count, Access, AccessBatch,
// All, Shuffled, InvertedAccess, Contains and SampleN, for every K in the
// matrix, on the golden CQ instances. The route it adds costs time, never
// memory: AccessInto through WithShards(4) allocates nothing.
func TestShardedEquivalence(t *testing.T) {
	for _, gi := range goldenInstances(t) {
		if _, ok := gi.q.(*CQ); !ok {
			continue // unions are rejected by WithShards; checked below
		}
		ref := mustOpen(t, gi.db, gi.q, gi.opts...)
		for _, k := range shardKs {
			t.Run(fmt.Sprintf("%s/K=%d", gi.name, k), func(t *testing.T) {
				opts := append(append([]Option{}, gi.opts...), WithShards(k))
				sh := mustOpen(t, gi.db, gi.q, opts...)
				assertHandleEquivalence(t, ref, sh)
			})
		}
		t.Run(gi.name+"/K=4/AccessIntoAllocs", func(t *testing.T) {
			sh := mustOpen(t, gi.db, gi.q, append(append([]Option{}, gi.opts...), WithShards(4))...)
			answer := make(Tuple, len(sh.Head()))
			// One run probes every position: AllocsPerRun rounds its average down.
			if allocs := testing.AllocsPerRun(10, func() {
				for j := int64(0); j < sh.Count(); j++ {
					if err := sh.AccessInto(j, answer); err != nil {
						t.Fatal(err)
					}
				}
			}); allocs != 0 {
				t.Fatalf("AccessInto through WithShards(4): %.0f allocations over %d probes, want 0", allocs, sh.Count())
			}
		})
	}
}

// assertHandleEquivalence drives ref and got through the same probes and
// requires byte-identical results.
func assertHandleEquivalence(t *testing.T, ref, got *Handle) {
	t.Helper()
	if got.Kind() != KindSharded {
		t.Fatalf("Kind = %s, want %s", got.Kind(), KindSharded)
	}
	n := ref.Count()
	if got.Count() != n {
		t.Fatalf("Count = %d, want %d", got.Count(), n)
	}
	if hw, hg := ref.Head(), got.Head(); strings.Join(hw, ",") != strings.Join(hg, ",") {
		t.Fatalf("Head = %v, want %v", hg, hw)
	}

	// All(): the full enumeration, byte for byte.
	var wantSeq []string
	var buf []byte
	for tu, err := range ref.All() {
		if err != nil {
			t.Fatal(err)
		}
		buf = formatAnswer(buf, tu)
		wantSeq = append(wantSeq, string(buf))
	}
	var j int
	for tu, err := range got.All() {
		if err != nil {
			t.Fatalf("All()[%d]: %v", j, err)
		}
		buf = formatAnswer(buf, tu)
		if string(buf) != wantSeq[j] {
			t.Fatalf("All()[%d] = %s, want %s", j, buf, wantSeq[j])
		}
		j++
	}
	if int64(j) != n {
		t.Fatalf("All() yielded %d answers, want %d", j, n)
	}

	// AccessBatch over random positions (with duplicates), both sides.
	rng := rand.New(rand.NewSource(17))
	js := make([]int64, 700)
	for i := range js {
		js[i] = rng.Int63n(n)
	}
	wantB, err := ref.AccessBatch(js)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := got.AccessBatch(js)
	if err != nil {
		t.Fatalf("AccessBatch: %v", err)
	}
	for i := range js {
		if string(formatAnswer(nil, gotB[i])) != string(formatAnswer(nil, wantB[i])) {
			t.Fatalf("AccessBatch slot %d (j=%d): got %v, want %v", i, js[i], gotB[i], wantB[i])
		}
	}

	// Shuffled: identical rng consumption means an identical permutation.
	wantShuf := drainShuffled(t, ref, 99)
	gotShuf := drainShuffled(t, got, 99)
	if len(wantShuf) != len(gotShuf) {
		t.Fatalf("Shuffled yielded %d answers, want %d", len(gotShuf), len(wantShuf))
	}
	for i := range wantShuf {
		if wantShuf[i] != gotShuf[i] {
			t.Fatalf("Shuffled[%d] = %s, want %s", i, gotShuf[i], wantShuf[i])
		}
	}

	// SampleN: same seed, same distinct draw.
	refS, err := ref.Sampler()
	if err != nil {
		t.Fatal(err)
	}
	gotS, err := got.Sampler()
	if err != nil {
		t.Fatalf("Sampler: %v", err)
	}
	if !gotS.Distinct() {
		t.Fatal("sharded sampler must be distinct")
	}
	wantSmp, err := refS.SampleN(n/2+1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	gotSmp, err := gotS.SampleN(n/2+1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("SampleN: %v", err)
	}
	for i := range wantSmp {
		if string(formatAnswer(nil, gotSmp[i])) != string(formatAnswer(nil, wantSmp[i])) {
			t.Fatalf("SampleN[%d] = %v, want %v", i, gotSmp[i], wantSmp[i])
		}
	}

	// InvertedAccess + Contains: every k-th answer maps back to its global
	// position; a perturbed tuple does not.
	inv, err := got.Inverter()
	if err != nil {
		t.Fatalf("Inverter: %v", err)
	}
	cont, err := got.Container()
	if err != nil {
		t.Fatalf("Container: %v", err)
	}
	step := n/50 + 1
	for p := int64(0); p < n; p += step {
		tu, err := ref.Access(p)
		if err != nil {
			t.Fatal(err)
		}
		gp, ok := inv.InvertedAccess(tu)
		if !ok || gp != p {
			t.Fatalf("InvertedAccess(answer %d) = (%d, %v), want (%d, true)", p, gp, ok, p)
		}
		if !cont.Contains(tu) {
			t.Fatalf("Contains(answer %d) = false", p)
		}
	}

	// Out-of-bounds parity.
	if _, err := got.Access(n); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("Access(n) error = %v, want ErrOutOfBounds", err)
	}
	if _, err := got.AccessBatch([]int64{0, -1}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("negative batch error = %v, want ErrOutOfBounds", err)
	}
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

// TestShardedGoldenHash replays the 493k-answer golden instance through the
// sharded backend for every K: the SHA-256 of the full enumeration must
// equal the recorded unsharded hash — sharding cannot perturb a single
// byte of the order.
func TestShardedGoldenHash(t *testing.T) {
	if testing.Short() {
		t.Skip("large golden enumeration skipped in -short mode")
	}
	f, err := os.Open(goldenOrderFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wantCount int64
	var wantHash string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "# hash star3big ") {
			fields := strings.Fields(line)
			wantCount, err = strconv.ParseInt(fields[4], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			wantHash = fields[6]
		}
	}
	if wantHash == "" {
		t.Fatal("no hash entry in golden file")
	}

	db, q, err := synth.Star(synth.Config{Relations: 3, TuplesPerRelation: 200, KeyDomain: 30, SkewS: 1.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range shardKs {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			h := mustOpen(t, db, q, WithShards(k))
			if h.Count() != wantCount {
				t.Fatalf("Count = %d, want %d", h.Count(), wantCount)
			}
			hash := sha256.New()
			buf := make([]byte, 0, 64)
			answer := make(Tuple, len(h.Head()))
			for j := int64(0); j < wantCount; j++ {
				if err := h.AccessInto(j, answer); err != nil {
					t.Fatal(err)
				}
				buf = formatAnswer(buf, answer)
				buf = append(buf, '\n')
				hash.Write(buf)
			}
			if got := fmt.Sprintf("%x", hash.Sum(nil)); got != wantHash {
				t.Fatalf("K=%d sequence hash %s, golden %s (sharding changed the order)", k, got, wantHash)
			}
		})
	}
}

// TestShardSliceConcatenation proves the daemon-side option: the K slice
// handles, concatenated in slice order, reproduce the unsharded
// enumeration exactly, and each slice confines inverted access to its own
// window.
func TestShardSliceConcatenation(t *testing.T) {
	for _, gi := range goldenInstances(t) {
		if _, ok := gi.q.(*CQ); !ok {
			continue
		}
		ref := mustOpen(t, gi.db, gi.q, gi.opts...)
		for _, k := range shardKs {
			t.Run(fmt.Sprintf("%s/K=%d", gi.name, k), func(t *testing.T) {
				var global int64
				var total int64
				for i := 0; i < k; i++ {
					opts := append(append([]Option{}, gi.opts...), WithShardSlice(i, k))
					sl := mustOpen(t, gi.db, gi.q, opts...)
					total += sl.Count()
					inv, err := sl.Inverter()
					if err != nil {
						t.Fatalf("slice Inverter: %v", err)
					}
					for local := int64(0); local < sl.Count(); local++ {
						want, err := ref.Access(global)
						if err != nil {
							t.Fatal(err)
						}
						got, err := sl.Access(local)
						if err != nil {
							t.Fatalf("slice %d Access(%d): %v", i, local, err)
						}
						if string(formatAnswer(nil, got)) != string(formatAnswer(nil, want)) {
							t.Fatalf("slice %d local %d: got %v, want %v", i, local, got, want)
						}
						if lj, ok := inv.InvertedAccess(want); !ok || lj != local {
							t.Fatalf("slice %d InvertedAccess = (%d, %v), want (%d, true)", i, lj, ok, local)
						}
						global++
					}
				}
				if total != ref.Count() {
					t.Fatalf("slices cover %d answers, want %d", total, ref.Count())
				}
			})
		}
	}
}

// TestSliceViewEquivalence proves the position-window wrapper (the
// snapshot-restore path, where the reduction is gone and only global
// positions exist): SliceView windows partition the handle exactly and
// answer every probe byte-identically to the underlying positions.
func TestSliceViewEquivalence(t *testing.T) {
	gi := goldenInstances(t)[0]
	ref := mustOpen(t, gi.db, gi.q, gi.opts...)
	n := ref.Count()
	for _, k := range shardKs {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			var global int64
			for i := 0; i < k; i++ {
				sl, err := SliceView(ref, i, k)
				if err != nil {
					t.Fatalf("SliceView(%d, %d): %v", i, k, err)
				}
				if sl.Kind() != ref.Kind() {
					t.Fatalf("slice Kind = %s, want %s (slices are transparent)", sl.Kind(), ref.Kind())
				}
				// Shuffled on a slice must be a permutation of exactly the
				// window (distinctness + coverage).
				seen := make(map[string]bool)
				for tu, err := range sl.Shuffled(rand.New(rand.NewSource(1))) {
					if err != nil {
						t.Fatal(err)
					}
					seen[string(formatAnswer(nil, tu))] = true
				}
				inv, err := sl.Inverter()
				if err != nil {
					t.Fatalf("SliceView Inverter: %v", err)
				}
				for local := int64(0); local < sl.Count(); local++ {
					want, err := ref.Access(global)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sl.Access(local)
					if err != nil {
						t.Fatalf("slice %d Access(%d): %v", i, local, err)
					}
					key := string(formatAnswer(nil, got))
					if key != string(formatAnswer(nil, want)) {
						t.Fatalf("slice %d local %d: got %v, want %v", i, local, got, want)
					}
					if !seen[key] {
						t.Fatalf("slice %d: Shuffled missed answer %s", i, key)
					}
					if lj, ok := inv.InvertedAccess(want); !ok || lj != local {
						t.Fatalf("slice %d InvertedAccess = (%d, %v), want (%d, true)", i, lj, ok, local)
					}
					global++
				}
				if int64(len(seen)) != sl.Count() {
					t.Fatalf("slice %d: Shuffled yielded %d distinct answers, want %d", i, len(seen), sl.Count())
				}
			}
			if global != n {
				t.Fatalf("views cover %d positions, want %d", global, n)
			}
		})
	}
}

// TestShardOptionRejections pins the unsupported combinations.
func TestShardOptionRejections(t *testing.T) {
	instances := goldenInstances(t)
	var cq, ucq goldenInstance
	for _, gi := range instances {
		switch gi.q.(type) {
		case *CQ:
			if cq.q == nil {
				cq = gi
			}
		case *UCQ:
			ucq = gi
		}
	}
	if _, err := Open(ucq.db, ucq.q, WithShards(2)); !IsUnsupported(err) {
		t.Fatalf("WithShards on a union: err = %v, want ErrUnsupported", err)
	}
	if _, err := Open(cq.db, cq.q, WithShards(2), WithDynamic()); !IsUnsupported(err) {
		t.Fatalf("WithShards with WithDynamic: err = %v, want ErrUnsupported", err)
	}
	if _, err := Open(cq.db, cq.q, WithShards(2), WithShardSlice(0, 2)); err == nil {
		t.Fatal("WithShards with WithShardSlice accepted")
	}
	if _, err := Open(cq.db, cq.q, WithShards(0)); err != nil {
		t.Fatalf("WithShards(0) must mean unsharded, got err %v", err)
	}
	if _, err := Open(cq.db, cq.q, WithShardSlice(3, 2)); err == nil {
		t.Fatal("WithShardSlice(3, 2) accepted an out-of-range slice")
	}
	h := mustOpen(t, cq.db, cq.q)
	if _, err := SliceView(h, 2, 2); err == nil {
		t.Fatal("SliceView(2, 2) accepted an out-of-range slice")
	}
	if _, err := SliceView(nil, 0, 1); err == nil {
		t.Fatal("SliceView(nil) accepted")
	}
	// A sharded handle reports its capability set honestly: everything the
	// CQ backend has except snapshotting.
	sh := mustOpen(t, cq.db, cq.q, WithShards(3))
	if sh.Has(CapSnapshot) {
		t.Fatal("sharded handle claims CapSnapshot")
	}
	for _, c := range []Capability{CapEnumerate, CapInvert, CapSample, CapContains, CapExplain} {
		if !sh.Has(c) {
			t.Fatalf("sharded handle lacks %s", c)
		}
	}
	if _, err := sh.Explain(); err != nil {
		t.Fatalf("sharded Explain: %v", err)
	}
}

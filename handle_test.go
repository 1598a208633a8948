package renum

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cqenum"
	"repro/internal/mcucq"
	"repro/internal/reduce"
	"repro/internal/shuffle"
	"repro/internal/synth"
)

// fixtureUCQ builds a mutually-compatible union over the fixtureDB
// relations: U(x,y) = R(x,y) ∪ S(x,y).
func fixtureUCQ(t testing.TB) (*Database, *UCQ) {
	t.Helper()
	db, _ := fixtureDB(t)
	u, err := NewUCQ("U",
		MustCQ("u1", []string{"x", "y"}, NewAtom("R", V("x"), V("y"))),
		MustCQ("u2", []string{"x", "y"}, NewAtom("S", V("x"), V("y"))))
	if err != nil {
		t.Fatal(err)
	}
	return db, u
}

func mustOpen(t testing.TB, db *Database, q Query, opts ...Option) *Handle {
	t.Helper()
	h, err := Open(db, q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// asParsed opens q on the as-parsed join tree (or disjunct order), which is
// what the bare internal structures compile: tests that pin positions or
// compare a handle with one of them use it.
func asParsed(t testing.TB, db *Database, q Query, opts ...Option) *Handle {
	t.Helper()
	return mustOpen(t, db, q, append(opts, WithPlanner(PlannerOff))...)
}

func mustInverter(t testing.TB, h *Handle) Inverter {
	t.Helper()
	inv, err := h.Inverter()
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

func mustContainer(t testing.TB, h *Handle) Container {
	t.Helper()
	in, err := h.Container()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func mustSampler(t testing.TB, h *Handle) Sampler {
	t.Helper()
	smp, err := h.Sampler()
	if err != nil {
		t.Fatal(err)
	}
	return smp
}

func TestOpenKindsAndCapabilities(t *testing.T) {
	db, q := fixtureDB(t)
	_, u := fixtureUCQ(t)

	cq := mustOpen(t, db, q)
	if cq.Kind() != KindCQ {
		t.Fatalf("cq kind = %s", cq.Kind())
	}
	wantCQ := []Capability{CapEnumerate, CapContains, CapInvert, CapSample, CapExplain, CapSnapshot}
	if got := cq.Capabilities(); len(got) != len(wantCQ) {
		t.Fatalf("cq capabilities = %v, want %v", got, wantCQ)
	} else {
		for i := range got {
			if got[i] != wantCQ[i] {
				t.Fatalf("cq capabilities = %v, want %v", got, wantCQ)
			}
		}
	}

	ucq := mustOpen(t, db, u)
	if ucq.Kind() != KindUCQ {
		t.Fatalf("ucq kind = %s", ucq.Kind())
	}
	if ucq.Has(CapInvert) || ucq.Has(CapUpdate) || ucq.Has(CapExplain) {
		t.Fatalf("ucq capabilities = %v: must not invert/update/explain", ucq.Capabilities())
	}
	if !ucq.Has(CapEnumerate) || !ucq.Has(CapSample) || !ucq.Has(CapContains) || !ucq.Has(CapSnapshot) {
		t.Fatalf("ucq capabilities = %v: missing enumerate/sample/contains/snapshot", ucq.Capabilities())
	}

	dq := MustCQ("dq", []string{"a", "b"}, NewAtom("R", V("a"), V("b")))
	dyn := mustOpen(t, db, dq, WithDynamic())
	if dyn.Kind() != KindDynamic {
		t.Fatalf("dynamic kind = %s", dyn.Kind())
	}
	if dyn.Has(CapEnumerate) || !dyn.Has(CapUpdate) || !dyn.Has(CapInvert) || !dyn.Has(CapSnapshot) {
		t.Fatalf("dynamic capabilities = %v", dyn.Capabilities())
	}

	// Typed accessors fail with the sentinel, never a type assertion burden
	// on the caller.
	if _, err := ucq.Inverter(); !IsUnsupported(err) {
		t.Fatalf("union Inverter err = %v, want ErrUnsupported", err)
	}
	if _, err := cq.Updater(); !IsUnsupported(err) {
		t.Fatalf("static Updater err = %v, want ErrUnsupported", err)
	}
	if _, err := dyn.Permute(rand.New(rand.NewSource(1))); !IsUnsupported(err) {
		t.Fatalf("dynamic Permute err = %v, want ErrUnsupported", err)
	}
	if _, err := ucq.Explain(); !IsUnsupported(err) {
		t.Fatalf("union Explain err = %v, want ErrUnsupported", err)
	}
	if plan, err := cq.Explain(); err != nil || plan == "" {
		t.Fatalf("cq Explain = %q, %v", plan, err)
	}

	// Option combinations the backends cannot serve fail at Open.
	if _, err := Open(db, u, WithDynamic()); !IsUnsupported(err) {
		t.Fatalf("Open(UCQ, WithDynamic) err = %v, want ErrUnsupported", err)
	}
	if _, err := Open(db, dq, WithDynamic(), WithCanonical()); !IsUnsupported(err) {
		t.Fatalf("Open(WithDynamic, WithCanonical) err = %v, want ErrUnsupported", err)
	}
	proj := MustCQ("proj", []string{"a"}, NewAtom("R", V("a"), V("b")))
	if _, err := Open(db, proj, WithDynamic()); !errors.Is(err, ErrNotFull) {
		t.Fatalf("Open(projection, WithDynamic) err = %v, want ErrNotFull", err)
	}
}

// TestHandleCompatOldVsNew is the cross-layer golden suite: every probe of
// the bare internal structures — the index cqenum.Prepare builds, the
// structure mcucq.New builds, each with its own Permute — must be
// byte-identical through the Handle, including the iterator-native
// enumerations and, for seeds 1–5, the random orders of Shuffled and of
// Permute's batched cursor. A SliceView answers to the same bare index.
// (It used to compare the handle with the exported pre-Open types, which
// were the handle's own backends.)
func TestHandleCompatOldVsNew(t *testing.T) {
	db, q := fixtureDB(t)
	_, u := fixtureUCQ(t)

	c, err := cqenum.Prepare(db, q, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mcucq.New(db, u, mcucq.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}

	// The window SliceView(·, 1, 3) serves, read straight off the index; no
	// bare structure permutes a window, so its reference is Theorem 3.7
	// spelled out: the shuffle over the window's count, one probe per draw.
	n := c.Count()
	lo, hi := n/3, 2*n/3
	sliceAcc := func(j int64) (Tuple, error) {
		if j < 0 || j >= hi-lo {
			return nil, ErrOutOfBounds
		}
		return c.Index.Access(lo + j)
	}
	whole := asParsed(t, db, q)
	slice, err := SliceView(whole, 1, 3)
	if err != nil {
		t.Fatal(err)
	}

	type bare struct {
		name  string
		count int64
		head  []string
		acc   func(j int64) (Tuple, error)
		batch func(js []int64) ([]Tuple, error)
		perm  func(rng *rand.Rand) func() (Tuple, bool)
		h     *Handle
	}
	cases := []bare{
		{
			name: "cq", count: n, head: c.Index.Head(),
			acc:   c.Index.Access,
			batch: func(js []int64) ([]Tuple, error) { return c.Index.AccessBatch(js, 0) },
			perm:  func(rng *rand.Rand) func() (Tuple, bool) { return c.Permute(rng).Next },
			h:     whole,
		},
		{
			name: "ucq", count: m.Count(), head: u.Disjuncts[0].Head,
			acc:   m.Access,
			batch: func(js []int64) ([]Tuple, error) { return m.AccessBatchContext(context.Background(), js, 0) },
			perm:  func(rng *rand.Rand) func() (Tuple, bool) { return m.Permute(rng).Next },
			h:     asParsed(t, db, u),
		},
		{
			name: "slice", count: hi - lo, head: c.Index.Head(),
			acc: sliceAcc,
			batch: func(js []int64) ([]Tuple, error) {
				out := make([]Tuple, len(js))
				for i, j := range js {
					tu, err := sliceAcc(j)
					if err != nil {
						return nil, err
					}
					out[i] = tu
				}
				return out, nil
			},
			perm: func(rng *rand.Rand) func() (Tuple, bool) {
				shuf := shuffle.New(hi-lo, rng)
				return func() (Tuple, bool) {
					j, ok := shuf.Next()
					if !ok {
						return nil, false
					}
					tu, err := sliceAcc(j)
					return tu, err == nil
				}
			},
			h: slice,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.h
			if h.Count() != tc.count {
				t.Fatalf("Count = %d, want %d", h.Count(), tc.count)
			}
			if len(h.Head()) != len(tc.head) {
				t.Fatalf("Head = %v, want %v", h.Head(), tc.head)
			}
			for i := range tc.head {
				if h.Head()[i] != tc.head[i] {
					t.Fatalf("Head = %v, want %v", h.Head(), tc.head)
				}
			}

			// All() replays the structure's enumeration order exactly, and
			// Access allocates the answer AccessInto writes.
			var j int64
			for tu, err := range h.All() {
				if err != nil {
					t.Fatal(err)
				}
				want, err := tc.acc(j)
				if err != nil {
					t.Fatal(err)
				}
				if !tu.Equal(want) {
					t.Fatalf("All[%d] = %v, bare Access = %v", j, tu, want)
				}
				if got, err := h.Access(j); err != nil || !got.Equal(want) {
					t.Fatalf("Access(%d) = %v, %v; bare Access = %v", j, got, err, want)
				}
				j++
			}
			if j != tc.count {
				t.Fatalf("All yielded %d answers, want %d", j, tc.count)
			}
			if _, err := h.Access(tc.count); !IsOutOfBounds(err) {
				t.Fatalf("Access(Count) err = %v, want ErrOutOfBounds", err)
			}

			// AccessInto matches Access through the handle.
			buf := make(Tuple, len(tc.head))
			for j := int64(0); j < tc.count; j++ {
				if err := h.AccessInto(j, buf); err != nil {
					t.Fatal(err)
				}
				want, _ := tc.acc(j)
				if !buf.Equal(want) {
					t.Fatalf("AccessInto(%d) = %v, want %v", j, buf, want)
				}
			}

			// Shuffled, Permute's Next and Permute's batched NextN replay
			// the structure's own permutation draw for draw.
			for seed := int64(1); seed <= 5; seed++ {
				var want []Tuple
				for next := tc.perm(rand.New(rand.NewSource(seed))); ; {
					tu, ok := next()
					if !ok {
						break
					}
					want = append(want, tu)
				}
				if int64(len(want)) != tc.count {
					t.Fatalf("seed %d: bare permutation emitted %d of %d", seed, len(want), tc.count)
				}
				var shuffled []Tuple
				for tu, err := range h.Shuffled(rand.New(rand.NewSource(seed))) {
					if err != nil {
						t.Fatal(err)
					}
					shuffled = append(shuffled, tu)
				}
				single, err := h.Permute(rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				batched, err := h.Permute(rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				var chunks []Tuple
				for chunk := batched.NextN(7); len(chunk) > 0; chunk = batched.NextN(7) {
					chunks = append(chunks, chunk...)
				}
				if len(shuffled) != len(want) || len(chunks) != len(want) {
					t.Fatalf("seed %d: Shuffled yielded %d, NextN %d, bare permutation %d", seed, len(shuffled), len(chunks), len(want))
				}
				for i := range want {
					if !shuffled[i].Equal(want[i]) {
						t.Fatalf("seed %d: Shuffled[%d] = %v, bare permutation = %v", seed, i, shuffled[i], want[i])
					}
					if tu, ok := single.Next(); !ok || !tu.Equal(want[i]) {
						t.Fatalf("seed %d: Next #%d = %v, %v; bare permutation = %v", seed, i, tu, ok, want[i])
					}
					if !chunks[i].Equal(want[i]) {
						t.Fatalf("seed %d: NextN[%d] = %v, bare permutation = %v", seed, i, chunks[i], want[i])
					}
				}
				if _, ok := single.Next(); ok {
					t.Fatalf("seed %d: Permutation outlived the bare permutation", seed)
				}
			}

			// Batch and page agree with the structure's batched probe.
			js := []int64{0, tc.count - 1, 1, 1, tc.count / 2}
			hb, err := h.AccessBatch(js)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := tc.batch(js)
			if err != nil {
				t.Fatal(err)
			}
			for i := range hb {
				if !hb[i].Equal(lb[i]) {
					t.Fatalf("AccessBatch[%d] = %v, bare %v", i, hb[i], lb[i])
				}
			}
			hp, err := h.Page(1, tc.count)
			if err != nil {
				t.Fatal(err)
			}
			var tail []int64
			for j := int64(1); j < tc.count; j++ {
				tail = append(tail, j)
			}
			lp, err := tc.batch(tail)
			if err != nil {
				t.Fatal(err)
			}
			if len(hp) != len(lp) {
				t.Fatalf("Page lengths %d vs %d", len(hp), len(lp))
			}
			for i := range hp {
				if !hp[i].Equal(lp[i]) {
					t.Fatalf("Page[%d] = %v, bare %v", i, hp[i], lp[i])
				}
			}
		})
	}
}

// TestUnionAccessParityWithCQPath: a union whose disjuncts are the same CQ
// twice is semantically that CQ, and the mc-UCQ handle must reproduce the
// bare CQ index byte for byte across the shared surface — AccessInto, Page,
// SampleN.
func TestUnionAccessParityWithCQPath(t *testing.T) {
	db, q := fixtureDB(t)
	c, err := cqenum.Prepare(db, q, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ra := c.Index
	q2 := MustCQ("q2", q.Head, q.Body...)
	u, err := NewUCQ("uu", q, q2)
	if err != nil {
		t.Fatal(err)
	}
	ua := asParsed(t, db, u, WithVerify())
	n := ra.Count()
	if ua.Count() != n {
		t.Fatalf("union of Q with itself counts %d, CQ counts %d", ua.Count(), n)
	}

	buf := make(Tuple, len(ra.Head()))
	for j := int64(0); j < n; j++ {
		want, err := ra.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		if err := ua.AccessInto(j, buf); err != nil {
			t.Fatal(err)
		}
		if !buf.Equal(want) {
			t.Fatalf("union AccessInto(%d) = %v, CQ %v", j, buf, want)
		}
	}
	if err := ua.AccessInto(n, buf); !IsOutOfBounds(err) {
		t.Fatalf("union AccessInto(n) err = %v, want ErrOutOfBounds", err)
	}

	up, err := ua.Page(3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var tail []int64
	for j := int64(3); j < n; j++ {
		tail = append(tail, j)
	}
	rp, err := ra.AccessBatch(tail, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != len(rp) {
		t.Fatalf("union Page %d rows, CQ %d", len(up), len(rp))
	}
	for i := range up {
		if !up[i].Equal(rp[i]) {
			t.Fatalf("union Page[%d] = %v, CQ %v", i, up[i], rp[i])
		}
	}
	if _, err := ua.Page(-1, 5); !IsOutOfBounds(err) {
		t.Fatalf("union Page(-1) err = %v", err)
	}
	if past, err := ua.Page(n+7, 5); err != nil || len(past) != 0 {
		t.Fatalf("union Page(past end) = %d rows, err %v", len(past), err)
	}

	// SampleN: distinct, complete at k ≥ n, ErrOutOfBounds on k < 0 —
	// identical contract to the CQ sampler.
	smp := mustSampler(t, ua)
	if _, err := smp.SampleN(-1, rand.New(rand.NewSource(1))); !IsOutOfBounds(err) {
		t.Fatalf("union SampleN(-1) err = %v", err)
	}
	got, err := smp.SampleN(n+100, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != n {
		t.Fatalf("union SampleN clamped to %d, want %d", len(got), n)
	}
	seen := make(map[string]bool, n)
	for _, tu := range got {
		seen[fmt.Sprint(tu)] = true
	}
	if int64(len(seen)) != n {
		t.Fatalf("union SampleN repeated answers: %d distinct of %d", len(seen), n)
	}
}

// TestSamplerCapabilityUnified: every backend reaches sampling through the
// one Sampler signature, with the same error shape — k < 0 is
// ErrOutOfBounds, an empty answer set is an empty sample with a nil error —
// and honestly reports replacement semantics.
func TestSamplerCapabilityUnified(t *testing.T) {
	db, q := fixtureDB(t)
	_, u := fixtureUCQ(t)
	dq := MustCQ("dq", []string{"a", "b"}, NewAtom("R", V("a"), V("b")))

	for _, tc := range []struct {
		name     string
		h        *Handle
		distinct bool
	}{
		{"cq", mustOpen(t, db, q), true},
		{"ucq", mustOpen(t, db, u), true},
		{"dynamic", mustOpen(t, db, dq, WithDynamic()), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			smp, err := tc.h.Sampler()
			if err != nil {
				t.Fatal(err)
			}
			if smp.Distinct() != tc.distinct {
				t.Fatalf("Distinct = %v, want %v", smp.Distinct(), tc.distinct)
			}
			if _, err := smp.SampleN(-1, rand.New(rand.NewSource(1))); !IsOutOfBounds(err) {
				t.Fatalf("SampleN(-1) err = %v, want ErrOutOfBounds", err)
			}
			ts, err := smp.SampleN(5, rand.New(rand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			if len(ts) != 5 {
				t.Fatalf("SampleN(5) = %d answers", len(ts))
			}
			cont, err := tc.h.Container()
			if err != nil {
				t.Fatal(err)
			}
			for _, tu := range ts {
				if !cont.Contains(tu) {
					t.Fatalf("sampled non-answer %v", tu)
				}
			}
		})
	}

	// The CQ sampler replays the bare index's permutation for the same rng:
	// a k-sample is its first k answers.
	c, err := cqenum.Prepare(db, q, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := mustSampler(t, asParsed(t, db, q)).SampleN(7, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	p := c.Permute(rand.New(rand.NewSource(31)))
	for i := range got {
		if want, ok := p.Next(); !ok || !got[i].Equal(want) {
			t.Fatalf("Sampler[%d] = %v, the bare permutation has %v", i, got[i], want)
		}
	}
	if len(got) != 7 {
		t.Fatalf("SampleN(7) = %d answers", len(got))
	}

	// Empty answer set: empty sample, nil error — on every backend.
	empty := NewDatabase()
	empty.MustCreate("R", "a", "b")
	empty.MustCreate("S", "b", "c")
	eq := MustCQ("eq", []string{"a", "b"}, NewAtom("R", V("a"), V("b")))
	for _, h := range []*Handle{
		mustOpen(t, empty, eq),
		mustOpen(t, empty, eq, WithDynamic()),
	} {
		smp, err := h.Sampler()
		if err != nil {
			t.Fatal(err)
		}
		ts, err := smp.SampleN(4, rand.New(rand.NewSource(3)))
		if err != nil || len(ts) != 0 {
			t.Fatalf("%s empty SampleN = %d answers, err %v", h.Kind(), len(ts), err)
		}
	}
}

// TestDynamicHandleSurface: the dynamic backend serves the shared surface
// (including batches and pages, probed under its read lock) while the
// stable-order iterators refuse with ErrUnsupported.
func TestDynamicHandleSurface(t *testing.T) {
	db, _ := fixtureDB(t)
	dq := MustCQ("dq", []string{"a", "b"}, NewAtom("R", V("a"), V("b")))
	h := mustOpen(t, db, dq, WithDynamic())
	n := h.Count()
	if n == 0 {
		t.Fatal("empty fixture")
	}

	js := []int64{0, n - 1, 0}
	ts, err := h.AccessBatch(js)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range js {
		want, err := h.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		if !ts[i].Equal(want) {
			t.Fatalf("dynamic AccessBatch[%d] = %v, want %v", i, ts[i], want)
		}
	}
	if _, err := h.AccessBatch([]int64{n}); !IsOutOfBounds(err) {
		t.Fatalf("dynamic AccessBatch out of range err = %v", err)
	}
	page, err := h.Page(1, n)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(page)) != n-1 {
		t.Fatalf("dynamic Page = %d rows, want %d", len(page), n-1)
	}

	for _, err := range h.All() {
		if !IsUnsupported(err) {
			t.Fatalf("dynamic All yielded err = %v, want ErrUnsupported", err)
		}
	}
	for _, err := range h.Shuffled(rand.New(rand.NewSource(1))) {
		if !IsUnsupported(err) {
			t.Fatalf("dynamic Shuffled yielded err = %v, want ErrUnsupported", err)
		}
	}

	// The buffer-arity contract is uniform across backends: a mismatched
	// AccessInto buffer is a descriptive error, never a panic and never
	// ErrOutOfBounds (which means a bad position).
	for _, hh := range []*Handle{h, mustOpen(t, db, MustCQ("q", []string{"a", "b"}, NewAtom("R", V("a"), V("b"))))} {
		err := hh.AccessInto(0, make(Tuple, 5))
		if err == nil || IsOutOfBounds(err) {
			t.Fatalf("%s AccessInto with wrong buffer: err = %v, want a distinct arity error", hh.Kind(), err)
		}
	}

	// A cancelled context stops a dynamic batch too (serial probe loop).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.AccessBatchContext(ctx, js); !errors.Is(err, context.Canceled) {
		t.Fatalf("dynamic cancelled batch err = %v", err)
	}
}

// bigHandle builds a star-join handle large enough (≈493k answers) that a
// multi-hundred-thousand-probe batch cannot finish before a cancellation a
// few milliseconds in.
func bigHandle(t testing.TB) (*Database, *Handle) {
	t.Helper()
	db, q, err := synth.Star(synth.Config{Relations: 3, TuplesPerRelation: 200, KeyDomain: 30, SkewS: 1.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return db, mustOpen(t, db, q)
}

// TestAccessBatchContextCancellation is the cancellation acceptance test: a
// cancelled context stops a large AccessBatch early, the call reports
// ctx.Err(), and nothing is corrupted — the same positions probed again
// (concurrently and after the fact) give exactly the per-position Access
// answers.
func TestAccessBatchContextCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("large cancellation fixture skipped in -short mode")
	}
	_, h := bigHandle(t)
	n := h.Count()

	// A batch of 2M probes takes hundreds of milliseconds at ~300ns/probe;
	// cancelling after 2ms must abort it long before completion.
	js := make([]int64, 1<<21)
	rng := rand.New(rand.NewSource(5))
	for i := range js {
		js[i] = rng.Int63n(n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var concurrent []Tuple
	var concurrentErr error
	go func() {
		// An innocent bystander on the same index and positions must be
		// unaffected by its neighbor's cancellation.
		defer wg.Done()
		concurrent, concurrentErr = h.AccessBatch(js[:4096])
	}()
	time.AfterFunc(2*time.Millisecond, cancel)
	start := time.Now()
	out, err := h.AccessBatchContext(ctx, js)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch err = %v (out len %d, took %v), want context.Canceled", err, len(out), elapsed)
	}
	if out != nil {
		t.Fatalf("cancelled batch leaked %d answers", len(out))
	}
	wg.Wait()
	if concurrentErr != nil {
		t.Fatal(concurrentErr)
	}
	for i, tu := range concurrent {
		want, err := h.Access(js[i])
		if err != nil {
			t.Fatal(err)
		}
		if !tu.Equal(want) {
			t.Fatalf("concurrent batch corrupted at %d: %v, want %v", i, tu, want)
		}
	}

	// The index still answers the very same batch correctly afterwards.
	redo, err := h.AccessBatchContext(context.Background(), js[:8192])
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range redo {
		want, _ := h.Access(js[i])
		if !tu.Equal(want) {
			t.Fatalf("post-cancel batch wrong at %d: %v, want %v", i, tu, want)
		}
	}

	// Pre-cancelled contexts never probe at all.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := h.AccessBatchContext(pre, js[:2]); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled batch err = %v", err)
	}
	if _, err := h.PageContext(pre, 0, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled page err = %v", err)
	}
}

// TestIteratorContextCancellation: AllContext and ShuffledContext observe
// cancellation between yields, surfacing ctx.Err() as the final pair; a
// permutation's NextNContext does the same between chunks.
func TestIteratorContextCancellation(t *testing.T) {
	db, q := fixtureDB(t)
	h := mustOpen(t, db, q)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var yielded int
	var last error
	for tu, err := range h.AllContext(ctx) {
		if err != nil {
			last = err
			break
		}
		_ = tu
		if yielded++; yielded == 3 {
			cancel()
		}
	}
	if !errors.Is(last, context.Canceled) {
		t.Fatalf("AllContext final err = %v, want context.Canceled", last)
	}
	if yielded != 3 {
		t.Fatalf("AllContext yielded %d answers after cancel-at-3", yielded)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	yielded, last = 0, nil
	for tu, err := range h.ShuffledContext(ctx2, rand.New(rand.NewSource(8))) {
		if err != nil {
			last = err
			break
		}
		_ = tu
		if yielded++; yielded == 2 {
			cancel2()
		}
	}
	if !errors.Is(last, context.Canceled) {
		t.Fatalf("ShuffledContext final err = %v, want context.Canceled", last)
	}

	p, err := h.Permute(rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := p.NextNContext(pre, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("NextNContext pre-cancelled err = %v", err)
	}
	// The cursor survives a cancelled draw: a live context keeps draining.
	ts, err := p.NextNContext(context.Background(), h.Count())
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) == 0 {
		t.Fatal("permutation dead after a cancelled NextNContext")
	}
}

// TestHandleUpdaterRoundTrip: updates through the capability report changes
// and maintain the count.
func TestHandleUpdaterRoundTrip(t *testing.T) {
	db, _ := fixtureDB(t)
	dq := MustCQ("dq", []string{"a", "b"}, NewAtom("R", V("a"), V("b")))
	h := mustOpen(t, db, dq, WithDynamic())
	upd, err := h.Updater()
	if err != nil {
		t.Fatal(err)
	}
	n := h.Count()
	tu := Tuple{Value(9001), Value(9002)}
	if changed, err := upd.Insert("R", tu); err != nil || !changed {
		t.Fatalf("Insert = %v, %v", changed, err)
	}
	if h.Count() != n+1 {
		t.Fatalf("count after insert = %d, want %d", h.Count(), n+1)
	}
	if changed, err := upd.Insert("R", tu); err != nil || changed {
		t.Fatalf("duplicate Insert = %v, %v", changed, err)
	}
	cont, _ := h.Container()
	if !cont.Contains(tu) {
		t.Fatal("inserted tuple not contained")
	}
	if changed, err := upd.Delete("R", tu); err != nil || !changed {
		t.Fatalf("Delete = %v, %v", changed, err)
	}
	if h.Count() != n {
		t.Fatalf("count after delete = %d, want %d", h.Count(), n)
	}
}

// TestOpenCountOverflow: a join with more answers than an int64 position can
// address fails Open with ErrCountOverflow on every static path — the plain
// index and a union containing it — instead of handing out a negative
// Count.
func TestOpenCountOverflow(t *testing.T) {
	db := NewDatabase()
	head := []string{"k"}
	var body []Atom
	for i := 0; i < 5; i++ {
		name, v := fmt.Sprintf("R%d", i), fmt.Sprintf("v%d", i)
		r := db.MustCreate(name, "k", v)
		for j := 0; j < 8192; j++ {
			r.MustInsert(0, Value(j))
		}
		head = append(head, v)
		body = append(body, NewAtom(name, V("k"), V(v)))
	}
	q := MustCQ("star", head, body...)
	u, err := NewUCQ("U", q, MustCQ("star2", head, body...))
	if err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() (*Handle, error){
		"cq":  func() (*Handle, error) { return Open(db, q) },
		"ucq": func() (*Handle, error) { return Open(db, u) },
	} {
		if h, err := open(); !errors.Is(err, ErrCountOverflow) {
			t.Fatalf("%s: handle %v, err %v; want ErrCountOverflow", name, h, err)
		}
	}
}

// incompatibleDisjuncts returns two CQs with the same six answers whose
// union is mutually compatible in one order only. qAB joins A and B and
// enumerates in A's order, x ascending; qC is the single atom C holding the
// answers with x descending. Their intersection is rooted at C — the one
// atom covering every variable — so it is in its first disjunct's order
// after qC and against it after qAB.
func incompatibleDisjuncts(db *Database) (qAB, qC *CQ) {
	a, b, c := db.MustCreate("A", "x", "y"), db.MustCreate("B", "y", "z"), db.MustCreate("C", "x", "y", "z")
	b.MustInsert(0, 7)
	b.MustInsert(1, 8)
	for i := 0; i < 6; i++ {
		a.MustInsert(Value(i), Value(i%2))
		c.MustInsert(Value(5-i), Value((5-i)%2), Value(7+(5-i)%2))
	}
	head := []string{"x", "y", "z"}
	return MustCQ("qAB", head, NewAtom("A", V("x"), V("y")), NewAtom("B", V("y"), V("z"))),
		MustCQ("qC", head, NewAtom("C", V("x"), V("y"), V("z")))
}

// TestOpenRefusesIncompatibleUnion: a union whose enumeration orders are
// not compatible fails Open with ErrIncompatible whether or not WithVerify
// is set. Without it Open used to build the structure and serve answers
// that are not a bijection onto the union.
func TestOpenRefusesIncompatibleUnion(t *testing.T) {
	db := NewDatabase()
	qAB, qC := incompatibleDisjuncts(db)
	for name, opts := range map[string][]Option{
		"default": nil,
		"verify":  {WithVerify()},
		"serial":  {WithWorkers(1), WithPlanner(PlannerOff)},
	} {
		if h, err := Open(db, MustUCQ("u", qAB, qC), opts...); !errors.Is(err, ErrIncompatible) {
			t.Fatalf("%s: handle %v, err %v; want ErrIncompatible", name, h, err)
		}
	}
	h := mustOpen(t, db, MustUCQ("u", qC, qAB))
	if h.Count() != 6 {
		t.Fatalf("the compatible order counts %d answers, want 6", h.Count())
	}
}

// TestOpenFallsBackFromIncompatiblePlan: the planner moves heavy disjuncts
// forward without knowing about order compatibility. When the order it
// picks is refused, Open builds the as-parsed one — a fallback that could
// only fire under WithVerify before the build checked every union.
func TestOpenFallsBackFromIncompatiblePlan(t *testing.T) {
	db := NewDatabase()
	qAB, qC := incompatibleDisjuncts(db)
	d := db.MustCreate("D", "x", "y", "z")
	d.MustInsert(4, 0, 7)
	d.MustInsert(40, 41, 42)
	qD := MustCQ("qD", []string{"x", "y", "z"}, NewAtom("D", V("x"), V("y"), V("z")))
	// qAB reads more tuples than qC, so the planner wants it second.
	parsed := MustUCQ("u", qD, qC, qAB)
	if _, err := Open(db, MustUCQ("u", qD, qAB, qC), WithPlanner(PlannerOff)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("the order the planner is expected to pick is not refused: %v", err)
	}

	var planned PlanStats
	h := mustOpen(t, db, parsed, WithPlanObserver(func(ps PlanStats) { planned = ps }))
	if planned.Identity {
		t.Fatalf("the planner kept the as-parsed order (%+v): nothing to fall back from", planned)
	}
	want := mustOpen(t, db, parsed, WithPlanner(PlannerOff))
	if h.Count() != 7 || want.Count() != 7 {
		t.Fatalf("counts %d and %d, want 7", h.Count(), want.Count())
	}
	for j := int64(0); j < h.Count(); j++ {
		got, err := h.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		if w, _ := want.Access(j); !got.Equal(w) {
			t.Fatalf("Access(%d) = %v, the as-parsed order has %v", j, got, w)
		}
	}
	evaluated, err := EvaluateUCQ(db, parsed)
	if err != nil || len(evaluated) != 7 {
		t.Fatalf("EvaluateUCQ: %d answers, %v", len(evaluated), err)
	}
	in, err := h.Container()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range evaluated {
		if !in.Contains(a) {
			t.Fatalf("answer %v is not in the fallback handle", a)
		}
	}
}

// TestUnionAccessIntoDoesNotAllocate: the union's single probe writes into
// the caller's row — including the positions Algorithm 7 resolves through an
// intersection, which used to cost a tuple per level and a scratch row per
// search, and here (a fence of stride 2) still finish their search by
// probing inside a window.
func TestUnionAccessIntoDoesNotAllocate(t *testing.T) {
	_, _, h := multiplyingUnion(t)
	row := make(Tuple, len(h.Head()))
	// One run probes every position: AllocsPerRun rounds its average down.
	if allocs := testing.AllocsPerRun(10, func() {
		for j := int64(0); j < h.Count(); j++ {
			if err := h.AccessInto(j, row); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Fatalf("Handle.AccessInto on a UCQ handle: %.0f allocations over %d probes, want 0", allocs, h.Count())
	}
}

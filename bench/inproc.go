package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro"
)

// What the in-process measurements and checks share.

const probeBlock = 4096 // AccessInto calls timed as one block

// fingerprint is an order-independent digest of an answer stream: the
// wrapping sum of each tuple's FNV-64a, with the count beside it.
type fingerprint struct {
	sum   uint64
	count int64
}

func (f *fingerprint) add(t renum.Tuple) {
	h := uint64(fnvOffset64)
	for _, v := range t {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h = (h ^ x&0xff) * fnvPrime64
			x >>= 8
		}
	}
	f.sum += h
	f.count++
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// heapAfterGC forces a collection and reads the heap statistics.
func heapAfterGC() runtime.MemStats {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// checkBijection verifies Inverted(Access(j)) == j on n seeded positions.
func checkBijection(h *renum.Handle, seed int64, n int) error {
	inv, err := h.Inverter()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	row := make(renum.Tuple, len(h.Head()))
	for i := 0; i < n; i++ {
		j := rng.Int63n(h.Count())
		if err := h.AccessInto(j, row); err != nil {
			return err
		}
		if got, ok := inv.InvertedAccess(row); !ok || got != j {
			return fmt.Errorf("InvertedAccess(Access(%d)) = %d, %v", j, got, ok)
		}
	}
	return nil
}

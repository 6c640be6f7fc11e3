package main

import (
	"math/rand"
	"time"
)

// arrival is one open-loop request: when it is due, relative to the start of
// its phase, and the vertex it asks for.
type arrival struct {
	due    time.Duration
	vertex int32
}

// poissonZipfSchedule generates the whole open-loop schedule up front:
// exponential inter-arrival gaps at the given rate over dur, each request
// asking for one vertex drawn Zipf(s) over a seeded permutation of the n
// vertex ids (so the hot vertices are not the generator's low-numbered
// hubs). The same seed gives the same arrivals and ids on every commit.
func poissonZipfSchedule(seed int64, rate float64, dur time.Duration, n int, s float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	zipf := rand.NewZipf(rng, s, 1, uint64(n-1))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, arrival{due: due, vertex: int32(perm[zipf.Uint64()])})
	}
}

// uniformRequests generates count closed-loop requests of perReq uniformly
// random vertex ids each.
func uniformRequests(seed int64, count, perReq, n int) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int32, count)
	for i := range out {
		ids := make([]int32, perReq)
		for j := range ids {
			ids[j] = int32(rng.Intn(n))
		}
		out[i] = ids
	}
	return out
}

// lingerBatches re-forms the batches the server's batcher would seal from an
// arrival schedule when it never waits for a worker: a batch opens at its
// first member's arrival and seals after maxLinger or at maxBatch vertices,
// whichever comes first. The traced replay runs these.
func lingerBatches(arr []arrival, maxLinger time.Duration, maxBatch, limit int) [][]int32 {
	var out [][]int32
	for i := 0; i < len(arr) && len(out) < limit; {
		open := arr[i].due
		var ids []int32
		for i < len(arr) && len(ids) < maxBatch && arr[i].due-open < maxLinger {
			ids = append(ids, arr[i].vertex)
			i++
		}
		out = append(out, ids)
	}
	return out
}

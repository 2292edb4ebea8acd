package pfd

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pfd/internal/kernel"
)

// chunkWords is the fixed parallel work unit of the scan kernels: 256
// bitmap words = 16384 rows. It is a constant, never derived from the
// worker count, so the chunk partition — and through it every
// kernel output — is identical no matter how many workers run. Only
// that invariant lets the chunk-parallel paths share the differential
// golden with the sequential ones.
const chunkWords = 256

// chunkRows is chunkWords in row units.
const chunkRows = chunkWords * kernel.WordBits

// scanWorkers is the scan worker-pool width. A variable so tests can
// force single- or many-worker execution; the default matches the
// discovery pool.
var scanWorkers = runtime.GOMAXPROCS(0)

// runChunks is the kernel.Runner backed by the scan pool: chunks are
// claimed from an atomic counter by up to scanWorkers goroutines, the
// same pattern as discovery's candidate pool. With one worker (or one
// chunk) it degrades to an inline loop — no goroutines, same output.
func runChunks(chunks int, fn func(chunk int)) {
	workers := scanWorkers
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			fn(c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				fn(c)
			}
		}()
	}
	wg.Wait()
}

// andSpanBitmaps fills dst (kernel.Words(nrows) words) with the AND of
// every LHS evaluation's match bitmap against its aligned code vector,
// chunk-parallel: each chunk owns an aligned word range of dst, so
// workers never share a word and the result is position-determined —
// identical at any worker count.
func andSpanBitmaps(dst []uint64, evs []*SpanEval, codes [][]uint32, nrows int) {
	nwords := kernel.Words(nrows)
	if len(evs) == 0 {
		// Degenerate empty LHS: every row matches vacuously.
		for i := range dst[:nwords] {
			dst[i] = ^uint64(0)
		}
		if nwords > 0 {
			dst[nwords-1] = kernel.TailMask(nrows)
		}
		return
	}
	chunks := (nwords + chunkWords - 1) / chunkWords
	runChunks(chunks, func(c int) {
		lo := c * chunkWords
		hi := min(lo+chunkWords, nwords)
		rl := lo * kernel.WordBits
		rh := min(hi*kernel.WordBits, nrows)
		kernel.MatchBitmapSigned(dst[lo:hi], codes[0][rl:rh], evs[0].Sid)
		for j := 1; j < len(evs); j++ {
			kernel.AndMatchBitmapSigned(dst[lo:hi], codes[j][rl:rh], evs[j].Sid)
		}
	})
}

// gatherSpanGroups partitions the rows of a single-attribute LHS by
// interned span id into gg: the counting-sort gather, going
// chunk-parallel exactly when the serial path would be the bottleneck
// (table at least two chunks, more than one scan worker). Both routes
// produce bit-identical group layouts, so Partition.Build can treat the
// decision as invisible. counts must be the column's live dictionary
// multiplicities (they size the gather arena); nrows the table length.
func gatherSpanGroups(gg *kernel.Groups, codes []uint32, ev *SpanEval, counts []int, nrows int) {
	if nrows >= 2*chunkRows && scanWorkers > 1 {
		kernel.GatherGroupsCodesParallel(gg, codes, ev.Sid, chunkRows, runChunks)
	} else {
		kernel.GatherGroupsCodes(gg, codes, ev.Sid, counts)
	}
}

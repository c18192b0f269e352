package memctrl

// Intrusive request queues. Each direction (reads, writes) keeps its
// requests on one doubly-linked list per (rank, bank), in arrival
// order, threaded through the Request itself so queue maintenance
// never allocates and dequeue is an O(1) unlink.
//
// The `active` slice is the compact set of bank indexes with at least
// one queued request; scans iterate it instead of the full bank array.
// Its order is maintained by swap-removal and therefore arbitrary, but
// that never affects scheduling: candidate requests collected from it
// are re-sorted by arrival (seqNo) before any timing probe fires.

// bankList heads the per-(rank,bank) request list of one direction.
type bankList struct {
	head, tail *Request
	n          int
	nDemand    int   // queued non-prefetch requests
	activePos  int32 // index into reqQueue.active, -1 while empty
}

// reqQueue is one direction's request queue (all reads or all writes).
type reqQueue struct {
	n         int
	nPrefetch int
	banks     []bankList
	active    []int32
}

func (q *reqQueue) init(nBanks int) {
	q.banks = make([]bankList, nBanks)
	for i := range q.banks {
		q.banks[i].activePos = -1
	}
	q.active = make([]int32, 0, nBanks)
}

// push appends r (arriving now, newest) to its bank's list. bi is the
// flat rank*banks+bank index of r's target bank.
func (q *reqQueue) push(r *Request, bi int) {
	q.n++
	if r.Prefetch {
		q.nPrefetch++
	}

	bq := &q.banks[bi]
	r.bankNext, r.bankPrev = nil, bq.tail
	if bq.tail != nil {
		bq.tail.bankNext = r
	} else {
		bq.head = r
		bq.activePos = int32(len(q.active))
		q.active = append(q.active, int32(bi))
	}
	bq.tail = r
	bq.n++
	if !r.Prefetch {
		bq.nDemand++
	}
}

// unlink removes r from its bank's list in O(1) and clears its links.
func (q *reqQueue) unlink(r *Request, bi int) {
	q.n--
	if r.Prefetch {
		q.nPrefetch--
	}

	bq := &q.banks[bi]
	if r.bankPrev != nil {
		r.bankPrev.bankNext = r.bankNext
	} else {
		bq.head = r.bankNext
	}
	if r.bankNext != nil {
		r.bankNext.bankPrev = r.bankPrev
	} else {
		bq.tail = r.bankPrev
	}
	bq.n--
	if !r.Prefetch {
		bq.nDemand--
	}
	r.bankNext, r.bankPrev = nil, nil

	if bq.head == nil {
		// Swap-remove this bank from the active set, repointing the
		// entry that takes its slot.
		last := len(q.active) - 1
		moved := q.active[last]
		q.active[bq.activePos] = moved
		q.banks[moved].activePos = bq.activePos
		q.active = q.active[:last]
		bq.activePos = -1
	}
}

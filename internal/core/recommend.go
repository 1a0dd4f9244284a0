package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cf"
	"repro/internal/emotion"
	"repro/internal/keyspace"
	"repro/internal/lifelog"
	"repro/internal/sum"
)

// The recommendation function (§5.4 #1): "to send in an individualized
// manner the action with most probabilities of execution by the user."
// Collaborative filtering over the 984-action universe produces the base
// ranking; the SUM's advice-stage vector then re-weights actions whose
// emotional tags resonate with (or repel) the user — the paper's
// "activation or inhibition of excitatory attributes from each domain"
// applied to the action catalogue.
//
// Interaction counts live in the shard snapshots' buckets (snapshot.go): the
// ingest publish folds each wave's events into copy-on-write rows, each with
// its norm. A recommend ranks straight from the rows published at that
// moment — no model to build, nothing stale, no lock — and answers exactly
// what cf.KNN (k = neighbourK) built from the same events would. A shard
// whose snapshot carries a rank index (per-action postings that readers
// build once and later snapshots inherit) is ranked term at a time from
// it, rescanning only the pages published since; any other shard is
// scanned row by row. On top of that, one process-wide cache remembers
// finished rankings, keyed on the snapshot epoch they were computed under:
// any publish anywhere retires every entry at once.

// ErrNoInteractions is returned by RecommendActions before any interaction
// has been ingested — there is nothing for collaborative filtering to rank
// yet. Distinguishable from infrastructure failures so callers (the
// serving layer maps it to 409) can tell "retry after ingest" from "the
// server is broken".
var ErrNoInteractions = errors.New("core: no interactions ingested yet")

// neighbourK is the user-kNN neighbourhood size.
const neighbourK = 25

// ActionTagger maps an action ordinal to the emotional attributes its
// content exercises (e.g. a fast-paced bootcamp page → stimulated,
// impatient). It is fixed at New (Options.ActionTagger); a nil tagger
// disables emotional re-weighting.
type ActionTagger func(action uint32) []emotion.Attribute

// interactionWeight grades event types for the CF matrix: transactions are
// stronger preference evidence than clicks.
func interactionWeight(t lifelog.EventType) float64 {
	switch t {
	case lifelog.EventEnroll:
		return 3
	case lifelog.EventInfoRequest:
		return 2
	case lifelog.EventClick:
		return 1
	case lifelog.EventPageView:
		return 0.5
	default:
		return 0
	}
}

// The recommend cache holds recStripes × recStripeCap finished rankings,
// whatever the shard count: a user's entry lives in the stripe its mixed id
// picks. A full stripe restarts from the inserted entry (generational
// eviction — cheap, and the next publish retires it anyway), so an insert
// copies at most recStripeCap-1 entries.
const (
	recStripes   = 16
	recStripeCap = 128
)

// recStripe is one stripe of the recommend cache: finished rankings valid
// only for the exact epoch they were computed under. The map is
// immutable after publish; inserts CAS a rebuilt stripe in and simply give
// up on contention (the cache is best-effort).
type recStripe struct {
	epoch   uint64
	entries map[uint64]recEntry
}

// recEntry is one cached ranking, keyed by the n it was computed for.
type recEntry struct {
	n    int
	recs []cf.Recommendation
}

// cacheRanking publishes a ranking into the user's stripe st, keyed to the
// epoch it was computed under. Lock-free: lost CAS races just skip the
// insert, and an entry under a superseded epoch is never read.
func cacheRanking(st *atomic.Pointer[recStripe], epoch, userID uint64, n int, recs []cf.Recommendation) {
	cur := st.Load()
	next := &recStripe{epoch: epoch}
	if cur != nil && cur.epoch == epoch && len(cur.entries) < recStripeCap {
		next.entries = make(map[uint64]recEntry, len(cur.entries)+1)
		for id, e := range cur.entries {
			next.entries[id] = e
		}
	} else {
		next.entries = make(map[uint64]recEntry, 1)
	}
	next.entries[userID] = recEntry{n: n, recs: append([]cf.Recommendation(nil), recs...)}
	st.CompareAndSwap(cur, next)
}

// RecommendActions returns the top-n actions for the user: the CF ranking
// re-weighted by the user's advice vector over the tagged attributes.
// Positive excitation boosts resonant actions; negative excitation
// (aversion) inhibits them.
func (s *SPA) RecommendActions(userID uint64, n int) ([]cf.Recommendation, error) {
	if n < 1 {
		return nil, errors.New("core: n must be >= 1")
	}
	// Epoch before snapshots: every writer stores its snapshot and then
	// bumps the epoch before it returns, so a ranking that straddles a
	// publish is cached under an epoch no later read loads — never wrongly
	// fresh.
	epoch := s.epoch.Load()
	// Identity before CF state: an unknown user is ErrNoProfile even on a
	// cold system where ranking would fail with ErrNoInteractions — callers
	// (and the serving layer's 404-vs-409 mapping) must not see a
	// registration question answered with a model answer.
	sh, c := s.locate(userID)
	snap := sh.snap.Load()
	p := snap.profile(c, userID)
	if p == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoProfile, userID)
	}
	stripe := &s.recs[keyspace.Mix64(userID)&(recStripes-1)]
	if st := stripe.Load(); st != nil && st.epoch == epoch {
		if e, hit := st.entries[userID]; hit && e.n == n {
			s.readCacheHits.Add(1)
			return append([]cf.Recommendation(nil), e.recs...), nil
		}
	}
	s.readCacheMisses.Add(1)
	recs, err := s.rankActions(snap, c, p, userID, n)
	if err != nil {
		return nil, err
	}
	cacheRanking(stripe, epoch, userID, n, recs)
	return recs, nil
}

// rankActions runs the CF ranking and the emotional re-weighting for one
// frozen profile; snap is the user's shard snapshot at cell c.
func (s *SPA) rankActions(snap *shardSnap, c cell, p *sum.Profile, userID uint64, n int) ([]cf.Recommendation, error) {
	// Over-fetch so emotional re-ranking has candidates to promote.
	fetch := max(n*3, 10)
	recs, err := s.rankCF(snap, c, userID, fetch)
	if err != nil {
		return nil, err
	}
	if s.tagger != nil {
		adv := s.model.Advise(p, "training")
		for i := range recs {
			boost := 0.0
			for _, attr := range s.tagger(recs[i].Action) {
				if int(attr) >= 0 && int(attr) < emotion.NumAttributes {
					boost += adv.Excitation[attr]
				}
			}
			// 1 + boost keeps inhibition meaningful (boost can be negative)
			// without flipping score signs for mild aversions.
			factor := 1 + 0.8*boost
			if factor < 0.1 {
				factor = 0.1
			}
			recs[i].Score *= factor
		}
		slices.SortFunc(recs, cmpRec)
	}
	if len(recs) > n {
		recs = recs[:n]
	}
	return recs, nil
}

// rankCF is cf.KNN.RecommendTopN with k = neighbourK for the user's row in
// snap at cell c, answered from the CF rows published right now.
//
// Each shard is ranked from its snapshot's rank index where it has one
// (rankIndexed) and by a scan of its rows where it has none (scanRows); the
// k best neighbours and the fetch best actions are selected by bounded
// heaps instead of sorting every candidate. Every interaction weight is a
// multiple of 0.5, so dot products, norms and popularity sums are exact in
// float64: the answer is bit-identical to cf.KNN's whatever order rows and
// postings are visited in (TestRecommendMatchesFrozenKNN,
// FuzzRankMatchesKNN).
func (s *SPA) rankCF(snap *shardSnap, c cell, userID uint64, fetch int) ([]cf.Recommendation, error) {
	var snapBuf [16]*shardSnap
	snaps := snapBuf[:0]
	for _, sh := range s.shards {
		snaps = append(snaps, sh.snap.Load())
	}
	pg := snap.buckets[c.bucket].rows[c.page]
	i, ok := slices.BinarySearchFunc(pg, userID, cmpRow)
	if !ok {
		return popular(snaps, fetch)
	}
	var q query
	q.init(&pg[i])
	var nbuf [neighbourK]neighbour
	best := kBest{topK: topK[neighbour]{h: nbuf[:], cmp: cmpNeighbour}, qnorm: q.me.norm}
	var acc *[]float64
	var hits, misses, builds uint64
	for _, sn := range snaps {
		x, built := sn.rankIndexFor()
		if built {
			builds++
		}
		if x == nil {
			for _, bk := range sn.buckets {
				for _, pg := range bk.rows {
					best.scanRows(pg, &q)
				}
			}
			misses++
			continue
		}
		if acc == nil {
			acc = accPool.Get().(*[]float64)
		}
		best.rankIndexed(sn, x, acc, &q)
		hits++
	}
	if acc != nil {
		accPool.Put(acc)
	}
	s.rankIndexHits.Add(hits)
	s.rankIndexMisses.Add(misses)
	s.rankIndexBuilds.Add(builds)

	// Score unseen actions in neighbour order, as RecommendTopN does. A
	// neighbour's row is looked up in the snapshot it was ranked from.
	var scores [lifelog.ActionUniverse]float64
	var touched [lifelog.ActionUniverse]uint32
	nt := 0
	var simSum float64
	for _, nb := range best.sorted() {
		simSum += nb.sim
		si, at := s.place(nb.id)
		pg := snaps[si].buckets[at.bucket].rows[at.page]
		i, _ := slices.BinarySearchFunc(pg, nb.id, cmpRow)
		for _, aw := range pg[i].row {
			if q.dense[aw.action] > 0 {
				continue
			}
			if scores[aw.action] == 0 {
				touched[nt] = aw.action
				nt++
			}
			scores[aw.action] += nb.sim * aw.w
		}
	}
	top := topK[cf.Recommendation]{h: make([]cf.Recommendation, min(nt, fetch)), cmp: cmpRec}
	for _, a := range touched[:nt] {
		sc := scores[a]
		if simSum > 0 {
			sc /= simSum
		}
		top.offer(cf.Recommendation{Action: a, Score: sc})
	}
	return top.sorted(), nil
}

// query is the ranked user's row, also dense: dense[a] > 0 marks a seen
// action.
type query struct {
	me    *rowEntry
	dense [lifelog.ActionUniverse]float64
}

func (q *query) init(me *rowEntry) {
	q.me = me
	for _, aw := range me.row {
		q.dense[aw.action] = aw.w
	}
}

// kBest is the neighbour selection of one ranking, for a query row of norm
// qnorm.
type kBest struct {
	topK[neighbour]
	qnorm float64
	// lim is 0 until k neighbours are held, then just under the k-th best
	// similarity × qnorm: a dot product d with a row of norm rn below
	// lim × rn is a similarity below the k-th best, margin for rounding
	// included.
	lim float64
}

// consider offers the row id, of norm rnorm and dot product d with the
// query. Most rows of a full selection fail the one multiply-and-compare
// against lim, before any division or comparator call; an equal
// similarity still goes to offer, which breaks the tie on the id.
func (k *kBest) consider(d, rnorm float64, id uint64) {
	if d < k.lim*rnorm {
		return
	}
	k.offer(neighbour{sim: d / (k.qnorm * rnorm), id: id})
	if k.n == len(k.h) {
		k.lim = k.h[0].sim * k.qnorm * (1 - 1e-9)
	}
}

// scanRows scores the rows of one page against the query, skipping the
// user's own row. The dot product is gathered in the row's action order,
// as cf.KNN sums it.
func (k *kBest) scanRows(pg []rowEntry, q *query) {
	for i := range pg {
		r := &pg[i]
		if r.id == q.me.id {
			continue
		}
		var d float64
		for _, aw := range r.row {
			d += q.dense[aw.action] * aw.w
		}
		if d != 0 {
			k.consider(d, r.norm, r.id)
		}
	}
}

// rankIndexed scores the rows of sn through its rank index x: term at a
// time, each of the user's actions adds its weight × the posting's weight
// into the accumulator slot of every row holding that action (Turtle &
// Flood's term-at-a-time evaluation). A bucket sn no longer shares with x
// is stale; within it, a page whose rows were replaced since x was built
// has its slots cleared unread and its current rows scanned, and every
// other page is still served by x. acc is the caller's scratch, all zeros
// on entry and on return.
func (k *kBest) rankIndexed(sn *shardSnap, x *rankIndex, acc *[]float64, q *query) {
	n := len(x.ids)
	if len(*acc) < n {
		*acc = make([]float64, n)
	}
	a := (*acc)[:n]
	x.accumulate(a, q.me.row)
	for b, bk := range sn.buckets {
		built, pages := x.built[b], x.first[b*bucketPages:(b+1)*bucketPages+1]
		if bk == built {
			k.gather(a, x, pages[0], pages[bucketPages], q)
			continue
		}
		for pg := range bucketPages {
			if samePage(bk.rows[pg], built.rows[pg]) {
				k.gather(a, x, pages[pg], pages[pg+1], q)
			} else {
				clear(a[pages[pg]:pages[pg+1]])
				k.scanRows(bk.rows[pg], q)
			}
		}
	}
}

// accumulate adds into a[slot] the dot product of row with the row of
// every slot, term at a time.
func (x *rankIndex) accumulate(a []float64, row []actionWeight) {
	post, start := x.post, &x.start
	for _, aw := range row {
		// ½q × 2w is q × w exactly: both are multiples of 0.5.
		qh := aw.w * 0.5
		for _, p := range post[start[aw.action]:start[aw.action+1]] {
			a[p.slot] += qh * float64(p.w2)
		}
	}
}

// gather offers the rows of slots lo..hi with a nonzero dot product in a,
// skipping the user's own row, and zeroes a over the range.
func (k *kBest) gather(a []float64, x *rankIndex, lo, hi uint32, q *query) {
	for slot := lo; slot < hi; slot++ {
		if d, rn := a[slot], x.norms[slot]; d != 0 && d >= k.lim*rn {
			if id := x.ids[slot]; id != q.me.id {
				k.consider(d, rn, id)
			}
		}
	}
	clear(a[lo:hi])
}

// samePage reports whether two row pages are one slice: publishes copy a
// page they change and share every other.
func samePage(a, b []rowEntry) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sameRows reports whether two versions of a bucket share every row page.
func sameRows(a, b *bucket) bool {
	for p := range bucketPages {
		if !samePage(a.rows[p], b.rows[p]) {
			return false
		}
	}
	return true
}

// accPool recycles rankIndexed's accumulators.
var accPool = sync.Pool{New: func() any { return new([]float64) }}

// rankIndex is a read-side, term-at-a-time view of one shard snapshot's CF
// rows: per-action postings of (row slot, weight), each slot's user id and
// norm, and the buckets it was built from. Slots run in bucket and page
// order, so page p of bucket b holds slots first[i]..first[i+1], i =
// b×bucketPages+p. Apart from built, nothing in it holds a pointer, so the
// collector never scans its arrays. Immutable once built; every later
// snapshot of the shard inherits it (clone), and rankIndexed rescans the
// row pages replaced since.
type rankIndex struct {
	built []*bucket
	first []uint32
	ids   []uint64
	norms []float64
	post  []posting
	// start[a]..start[a+1] are action a's postings, in slot order.
	start [lifelog.ActionUniverse + 1]uint32
}

// posting is one row's weight for one action, in halves: 2w, whole because
// every interaction weight is a multiple of 0.5.
type posting struct{ slot, w2 uint32 }

// buildRankIndex indexes every row of sn. It returns nil — sn is then
// scanned — when a weight is not a whole number of halves that fits a
// posting.
func buildRankIndex(sn *shardSnap) *rankIndex {
	x := &rankIndex{built: slices.Clone(sn.buckets), first: make([]uint32, len(sn.buckets)*bucketPages+1)}
	rows, nnz := 0, 0
	for b, bk := range sn.buckets {
		for p, pg := range bk.rows {
			x.first[b*bucketPages+p] = uint32(rows)
			rows += len(pg)
			for _, r := range pg {
				nnz += len(r.row)
				for _, aw := range r.row {
					x.start[aw.action+1]++
				}
			}
		}
	}
	x.first[len(x.first)-1] = uint32(rows)
	for a := range lifelog.ActionUniverse {
		x.start[a+1] += x.start[a]
	}
	next := x.start
	x.ids, x.norms, x.post = make([]uint64, rows), make([]float64, rows), make([]posting, nnz)
	slot := uint32(0)
	for _, bk := range sn.buckets {
		for _, pg := range bk.rows {
			for _, r := range pg {
				x.ids[slot], x.norms[slot] = r.id, r.norm
				for _, aw := range r.row {
					w2 := aw.w * 2
					if w2 != math.Trunc(w2) || w2 > math.MaxUint32 {
						return nil
					}
					x.post[next[aw.action]] = posting{slot: slot, w2: uint32(w2)}
					next[aw.action]++
				}
				slot++
			}
		}
	}
	return x
}

// rankIndexFor returns the index to rank sn from, nil to scan it, and
// whether it built that index. A reader builds one — and offers it to sn
// by CAS — only for a snapshot an earlier reader has already ranked, and
// only when sn has none or a quarter of its buckets are stale, a bucket
// being stale once a publish has replaced one of its row pages (a
// profile-only publish replaces the bucket but none of its rows): a
// snapshot read once (a follower's, whose every shard moves between reads)
// never pays for a build, and one inherited index serves a shard's later
// snapshots until their changes add up.
func (sn *shardSnap) rankIndexFor() (x *rankIndex, built bool) {
	x = sn.index.Load()
	if !sn.ranked.Load() {
		sn.ranked.Store(true)
		return x, false
	}
	if x != nil {
		stale := 0
		for b, bk := range sn.buckets {
			if old := x.built[b]; bk != old && !sameRows(bk, old) {
				stale++
			}
		}
		if 4*stale < len(sn.buckets) {
			return x, false
		}
	}
	nx := buildRankIndex(sn)
	if nx != nil {
		sn.index.CompareAndSwap(x, nx)
	}
	return nx, true
}

// popular is the cold-start answer for a user without a row: global
// popularity (an action's share of all interaction weight), summed over the
// rows on demand — cf.Interactions.TopPopular scored by Popularity.
func popular(snaps []*shardSnap, fetch int) ([]cf.Recommendation, error) {
	var pop [lifelog.ActionUniverse]float64
	var total float64
	for _, sn := range snaps {
		for _, bk := range sn.buckets {
			for _, pg := range bk.rows {
				for _, r := range pg {
					for _, aw := range r.row {
						pop[aw.action] += aw.w
						total += aw.w
					}
				}
			}
		}
	}
	if total == 0 {
		return nil, ErrNoInteractions
	}
	// Rank on the raw sums, then normalize, exactly as the reference does.
	top := topK[cf.Recommendation]{h: make([]cf.Recommendation, fetch), cmp: cmpRec}
	for a, w := range pop {
		if w > 0 {
			top.offer(cf.Recommendation{Action: uint32(a), Score: w})
		}
	}
	out := top.sorted()
	for i := range out {
		out[i].Score /= total
	}
	return out, nil
}

// neighbour is one candidate row of the kNN selection.
type neighbour struct {
	sim float64
	id  uint64
}

// cmpNeighbour is cf.KNN.Neighbors' order: higher similarity first, then
// lower id.
func cmpNeighbour(a, b neighbour) int {
	return cmp.Or(cmp.Compare(b.sim, a.sim), cmp.Compare(a.id, b.id))
}

// cmpRec is the ranking order: higher score first, then lower action.
func cmpRec(a, b cf.Recommendation) int {
	return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Action, b.Action))
}

// topK keeps the len(h) best items offered to it — best first by cmp, a
// strict total order — in a binary heap h[:n] whose root is the worst kept.
type topK[T any] struct {
	h   []T
	n   int
	cmp func(a, b T) int
}

func (t *topK[T]) offer(c T) {
	h, i := t.h, 0
	if t.n < len(h) {
		i, t.n = t.n, t.n+1
		h[i] = c
		for p := (i - 1) / 2; i > 0 && t.cmp(h[p], h[i]) < 0; i, p = p, (p-1)/2 {
			h[p], h[i] = h[i], h[p]
		}
		return
	}
	if t.cmp(c, h[0]) >= 0 {
		return
	}
	h[0] = c
	for {
		w := 2*i + 1 // the worse child
		if w >= t.n {
			return
		}
		if w+1 < t.n && t.cmp(h[w], h[w+1]) < 0 {
			w++
		}
		if t.cmp(h[i], h[w]) > 0 {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// sorted returns the kept items best first, in the heap's own storage.
func (t *topK[T]) sorted() []T {
	kept := t.h[:t.n]
	slices.SortFunc(kept, t.cmp)
	return kept
}

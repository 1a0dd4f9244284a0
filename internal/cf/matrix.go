// Package cf provides the collaborative-filtering substrate behind SPA's
// recommendation function: the sparse user–action interaction matrix over
// the 984-action universe, neighborhood models (user-kNN with cosine or
// Jaccard similarity), a popularity model, and a matrix-factorization
// variant trained with SGD. The paper's recommendation function sends each
// user "the action with most probabilities of execution" (§5.4); these
// models produce that per-user action ranking, with the emotional advice
// vector from internal/sum acting as a re-weighting layer in internal/core.
package cf

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Interactions is a sparse user × action count matrix in CSR-like form,
// built incrementally then frozen for queries.
type Interactions struct {
	nActions int
	rows     map[uint64]map[uint32]float64
	frozen   bool

	// Frozen representation.
	userIDs  []uint64
	userIdx  map[uint64]int
	rowPtr   []int
	colIdx   []uint32
	val      []float64
	rowNorm  []float64
	actPop   []float64 // per-action total weight (popularity)
	totalPop float64
}

// NewInteractions creates an empty matrix over a fixed action universe.
func NewInteractions(nActions int) *Interactions {
	if nActions <= 0 {
		panic("cf: non-positive action universe")
	}
	return &Interactions{
		nActions: nActions,
		rows:     make(map[uint64]map[uint32]float64),
	}
}

// ErrFrozen is returned by Add after Freeze.
var ErrFrozen = errors.New("cf: matrix frozen")

// ErrNotFrozen is returned by query methods before Freeze.
var ErrNotFrozen = errors.New("cf: matrix not frozen yet")

// Add accumulates weight for (user, action). Typical weights: 1 per click,
// larger for transactions.
func (m *Interactions) Add(user uint64, action uint32, weight float64) error {
	if m.frozen {
		return ErrFrozen
	}
	if user == 0 {
		return errors.New("cf: zero user id")
	}
	if int(action) >= m.nActions {
		return fmt.Errorf("cf: action %d outside universe %d", action, m.nActions)
	}
	if weight <= 0 {
		return errors.New("cf: non-positive weight")
	}
	row := m.rows[user]
	if row == nil {
		row = make(map[uint32]float64)
		m.rows[user] = row
	}
	row[action] += weight
	return nil
}

// Freeze converts to the compact query representation. Idempotent.
func (m *Interactions) Freeze() {
	if m.frozen {
		return
	}
	m.userIDs = make([]uint64, 0, len(m.rows))
	for id := range m.rows {
		m.userIDs = append(m.userIDs, id)
	}
	sort.Slice(m.userIDs, func(i, j int) bool { return m.userIDs[i] < m.userIDs[j] })
	m.userIdx = make(map[uint64]int, len(m.userIDs))
	m.rowPtr = make([]int, len(m.userIDs)+1)
	m.actPop = make([]float64, m.nActions)
	for i, id := range m.userIDs {
		m.userIdx[id] = i
		row := m.rows[id]
		actions := make([]uint32, 0, len(row))
		for a := range row {
			actions = append(actions, a)
		}
		sort.Slice(actions, func(x, y int) bool { return actions[x] < actions[y] })
		var norm float64
		for _, a := range actions {
			w := row[a]
			m.colIdx = append(m.colIdx, a)
			m.val = append(m.val, w)
			norm += w * w
			m.actPop[a] += w
			m.totalPop += w
		}
		m.rowPtr[i+1] = len(m.colIdx)
		m.rowNorm = append(m.rowNorm, math.Sqrt(norm))
	}
	m.rows = nil
	m.frozen = true
}

// Users returns the number of users with interactions (frozen only).
func (m *Interactions) Users() int { return len(m.userIDs) }

// Actions returns the action universe size.
func (m *Interactions) Actions() int { return m.nActions }

// NNZ returns the number of stored entries (frozen only).
func (m *Interactions) NNZ() int { return len(m.val) }

// Row returns the (actions, weights) slices of a user's row; ok=false when
// the user has no interactions.
func (m *Interactions) Row(user uint64) (actions []uint32, weights []float64, ok bool) {
	if !m.frozen {
		return nil, nil, false
	}
	i, exists := m.userIdx[user]
	if !exists {
		return nil, nil, false
	}
	start, end := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[start:end], m.val[start:end], true
}

// Popularity returns the normalized popularity of an action in [0,1].
func (m *Interactions) Popularity(action uint32) float64 {
	if !m.frozen || int(action) >= m.nActions || m.totalPop == 0 {
		return 0
	}
	return m.actPop[action] / m.totalPop
}

// TopPopular returns the k most popular actions, descending; ties break by
// ascending action id.
func (m *Interactions) TopPopular(k int) []uint32 {
	if !m.frozen {
		return nil
	}
	type aw struct {
		a uint32
		w float64
	}
	all := make([]aw, 0, m.nActions)
	for a, w := range m.actPop {
		if w > 0 {
			all = append(all, aw{uint32(a), w})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].a < all[j].a
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]uint32, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].a
	}
	return out
}

// Cosine computes the cosine similarity between two users' rows.
func (m *Interactions) Cosine(a, b uint64) (float64, error) {
	if !m.frozen {
		return 0, ErrNotFrozen
	}
	ia, oka := m.userIdx[a]
	ib, okb := m.userIdx[b]
	if !oka || !okb {
		return 0, nil
	}
	dotv := m.rowDot(ia, ib)
	na, nb := m.rowNorm[ia], m.rowNorm[ib]
	if na == 0 || nb == 0 {
		return 0, nil
	}
	return dotv / (na * nb), nil
}

// Jaccard computes the Jaccard similarity of the two users' action sets.
func (m *Interactions) Jaccard(a, b uint64) (float64, error) {
	if !m.frozen {
		return 0, ErrNotFrozen
	}
	ia, oka := m.userIdx[a]
	ib, okb := m.userIdx[b]
	if !oka || !okb {
		return 0, nil
	}
	sa, ea := m.rowPtr[ia], m.rowPtr[ia+1]
	sb, eb := m.rowPtr[ib], m.rowPtr[ib+1]
	inter := 0
	i, j := sa, sb
	for i < ea && j < eb {
		switch {
		case m.colIdx[i] == m.colIdx[j]:
			inter++
			i++
			j++
		case m.colIdx[i] < m.colIdx[j]:
			i++
		default:
			j++
		}
	}
	union := (ea - sa) + (eb - sb) - inter
	if union == 0 {
		return 0, nil
	}
	return float64(inter) / float64(union), nil
}

func (m *Interactions) rowDot(ia, ib int) float64 {
	sa, ea := m.rowPtr[ia], m.rowPtr[ia+1]
	sb, eb := m.rowPtr[ib], m.rowPtr[ib+1]
	var s float64
	i, j := sa, sb
	for i < ea && j < eb {
		switch {
		case m.colIdx[i] == m.colIdx[j]:
			s += m.val[i] * m.val[j]
			i++
			j++
		case m.colIdx[i] < m.colIdx[j]:
			i++
		default:
			j++
		}
	}
	return s
}

// UserIDs returns all user ids in ascending order (frozen only).
func (m *Interactions) UserIDs() []uint64 {
	return append([]uint64(nil), m.userIDs...)
}

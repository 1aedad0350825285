package index

import (
	"errors"
	"fmt"
	"slices"
)

// Level is the state a search derives from the history and carries to
// the next one: the window level (posting planes and disjoint-window
// envelopes) as of Synced, and the previous step's kNN positions that
// seed the threshold. An index that installs the Level of another index
// over the same history resumes where that one left off: its next Sync
// takes the incremental path over what was appended since Synced, and
// its searches run with the same bounds and seeds, so they return the
// same answers at the same cost. A sensor's record carries it across
// spill, checkpoint and resync (see Index.Level and InstallLevel).
//
// The context-pending disjoint windows and the master-query envelope are
// not part of it: both follow from Synced and the history.
type Level struct {
	// Omega, Rho and DMax are the shape the level was built under: ω, ρ
	// and the master query length max(ELV). No other parameter shapes
	// the window level.
	Omega, Rho, DMax int
	// Synced is the history length the window level covers.
	Synced int
	// EQ and EC are the posting planes, nSW rows of nDW entries each
	// (nSW = DMax − Omega + 1 sliding windows, nDW = ⌊Synced/Omega⌋
	// disjoint windows), in logical order: row b is the sliding window b
	// points from the right end of the master query.
	EQ, EC [][]float32
	// EnvU and EnvL are the disjoint windows' envelopes, Omega entries a
	// window.
	EnvU, EnvL []float32
	// Seeds are the previous step's kNN positions per item query length,
	// D ascending.
	Seeds []Seeds
}

// Seeds is one item query's threshold seeds: the positions of its
// previous step's k nearest neighbours.
type Seeds struct {
	D int
	T []int
}

// Validate reports whether l is a window level an index over a history
// of n points could hold: a shape that Params.Validate would accept, a
// Synced in [DMax+Omega, n], planes and envelopes of the sizes Synced
// implies, no NaN or negative bound, no upper envelope point below its
// lower one, and seeds for ascending lengths in [1, DMax] at positions
// a segment of that length can start at.
func (l *Level) Validate(n int) error {
	switch {
	case l.Omega < 2 || l.Rho < 0 || l.DMax < 2*l.Omega-1:
		return fmt.Errorf("index: level shape ω=%d ρ=%d d_max=%d", l.Omega, l.Rho, l.DMax)
	case l.Omega > n || l.DMax > n || l.Synced > n || l.Synced < l.DMax+l.Omega:
		return fmt.Errorf("index: level covers %d points of %d (at least d_max+ω = %d)", l.Synced, n, l.DMax+l.Omega)
	}
	nSW, nDW := l.DMax-l.Omega+1, l.Synced/l.Omega
	if len(l.EQ) != nSW || len(l.EC) != nSW {
		return fmt.Errorf("index: level planes hold %d and %d rows, want %d", len(l.EQ), len(l.EC), nSW)
	}
	if env := nDW * l.Omega; len(l.EnvU) != env || len(l.EnvL) != env {
		return fmt.Errorf("index: level envelopes hold %d and %d points, want %d", len(l.EnvU), len(l.EnvL), env)
	}
	for _, plane := range [...][][]float32{l.EQ, l.EC} {
		for b, row := range plane {
			if len(row) != nDW {
				return fmt.Errorf("index: level posting row %d holds %d entries, want %d", b, len(row), nDW)
			}
			for _, v := range row {
				if !(v >= 0) {
					return fmt.Errorf("index: level posting entry %v is not a lower bound", v)
				}
			}
		}
	}
	for i, u := range l.EnvU {
		if u < l.EnvL[i] {
			return fmt.Errorf("index: level envelope point %d has upper %v below lower %v", i, u, l.EnvL[i])
		}
	}
	prev := 0
	for _, s := range l.Seeds {
		if s.D <= prev || s.D > l.DMax {
			return fmt.Errorf("index: level seeds for length %d after %d (d_max %d)", s.D, prev, l.DMax)
		}
		prev = s.D
		for _, t := range s.T {
			if t < 0 || t > n-s.D {
				return fmt.Errorf("index: level seed %d for length %d outside a %d-point history", t, s.D, n)
			}
		}
	}
	return nil
}

// Level returns the index's window level and threshold seeds, or nil
// when the window level is not built (no search yet, or a failed one
// since). It copies nothing: its slices are the index's own, valid until
// the index next searches, syncs or closes, so a caller encodes it
// before it lets go of whatever serializes the index's use.
func (ix *Index) Level() *Level {
	if !ix.built {
		return nil
	}
	env := ix.nDW * ix.p.Omega
	l := &Level{
		Omega:  ix.p.Omega,
		Rho:    ix.p.Rho,
		DMax:   ix.dmax,
		Synced: ix.synced,
		EQ:     make([][]float32, ix.nSW),
		EC:     make([][]float32, ix.nSW),
		EnvU:   ix.dwEnvU[:env],
		EnvL:   ix.dwEnvL[:env],
		Seeds:  make([]Seeds, 0, len(ix.prevNN)),
	}
	for b := range l.EQ {
		s := ix.slot(b)
		l.EQ[b], l.EC[b] = ix.postEQ[s], ix.postEC[s]
	}
	for d, t := range ix.prevNN {
		l.Seeds = append(l.Seeds, Seeds{D: d, T: t})
	}
	slices.SortFunc(l.Seeds, func(a, b Seeds) int { return a.D - b.D })
	return l
}

// NewPlane allocates a posting plane of rows × n entries the way the
// index lays out one it grows: the rows share one backing array with
// headroom for growHeadroom more disjoint windows each, so a plane
// decoded into it and installed takes the windows completed over the
// next growHeadroom·ω observations without a reallocation.
func NewPlane(rows, n int) [][]float32 {
	plane := make([][]float32, rows)
	growPlane(plane, n)
	return plane
}

// InstallLevel makes l the index's window level and threshold seeds, in
// place of the build its first search would run. The index keeps l's
// slices, and the caller must not use l afterwards: each plane's rows
// become the index's own, which it extends in place while they have the
// capacity, so they must be laid out as NewPlane lays them out. It
// refuses, leaving the index and l as they were, a level built under
// another ω, ρ or d_max, seeds for a length the ELV does not hold, a
// level that fails Validate against the history, and an index whose
// window level is built already.
func (ix *Index) InstallLevel(l *Level) error {
	switch {
	case ix.closed:
		return errors.New("index: closed")
	case ix.built:
		return errors.New("index: window level already built")
	case l.Omega != ix.p.Omega || l.Rho != ix.p.Rho || l.DMax != ix.dmax:
		return fmt.Errorf("index: level built under ω=%d ρ=%d d_max=%d, index has ω=%d ρ=%d d_max=%d",
			l.Omega, l.Rho, l.DMax, ix.p.Omega, ix.p.Rho, ix.dmax)
	}
	for _, s := range l.Seeds {
		if !slices.Contains(ix.p.ELV, s.D) {
			return fmt.Errorf("index: level seeds for length %d, not in the ELV %v", s.D, ix.p.ELV)
		}
	}
	if err := l.Validate(len(ix.c)); err != nil {
		return err
	}
	ix.nDW, ix.synced, ix.cursor = l.Synced/ix.p.Omega, l.Synced, 0
	ix.dwEnvU, ix.dwEnvL = l.EnvU, l.EnvL
	ix.postEQ, ix.postEC = l.EQ, l.EC
	ix.dwCtxPending = ix.ctxPendingWindows()
	ix.prevNN = make(map[int][]int, len(l.Seeds))
	for _, s := range l.Seeds {
		ix.prevNN[s.D] = s.T
	}
	if ix.synced == len(ix.c) {
		// No Sync refreshes the master-query envelope until the history
		// runs ahead of the level; when it already has, the next Sync
		// refreshes it before anything reads it.
		ix.refreshMQEnvelope()
	}
	ix.built = true
	return nil
}

// ctxPendingWindows lists, ascending, the disjoint windows whose right
// context a window level over synced points lacks: DW_r is pending when
// (r+1)·ω + ρ > synced. It is the list a live index keeps (computeDWEnvelope
// adds to it, Sync's refresh drops what completed), derived.
func (ix *Index) ctxPendingWindows() []int {
	omega, rho := ix.p.Omega, ix.p.Rho
	var out []int
	for r := max(0, (ix.synced-rho)/omega-1); r < ix.nDW; r++ {
		if (r+1)*omega+rho > ix.synced {
			out = append(out, r)
		}
	}
	return out
}

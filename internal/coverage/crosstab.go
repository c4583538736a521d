package coverage

import "pdcunplugged/internal/core"

// CrossTab counts activities at each (medium, sense) combination — the
// Section III-D interplay the accessibility view exposes (analogies are
// primarily verbal, card activities tactile and visual, role-plays
// kinesthetic).
type CrossTab struct {
	// Mediums and Senses list the axes in display order.
	Mediums []string
	Senses  []string
	// Counts[medium][sense] = activities listing both terms.
	Counts map[string]map[string]int
}

// Cell returns the count at (medium, sense).
func (ct *CrossTab) Cell(medium, sense string) int {
	if row, ok := ct.Counts[medium]; ok {
		return row[sense]
	}
	return 0
}

// MediumSenseCrossTab computes the medium x sense activity matrix. Each
// cell is the popcount of the intersection of the two terms' bitsets in
// the repository's term index.
func MediumSenseCrossTab(r *core.Repository) *CrossTab {
	ix := r.Index()
	ct := &CrossTab{Counts: map[string]map[string]int{}}
	for _, c := range MediumCounts(r) {
		ct.Mediums = append(ct.Mediums, c.Term)
	}
	ct.Senses = ix.Terms("senses")
	for _, medium := range ct.Mediums {
		mediumDocs, _ := ix.Docs("medium", medium)
		row := make(map[string]int, len(ct.Senses))
		for _, sense := range ct.Senses {
			senseDocs, _ := ix.Docs("senses", sense)
			row[sense] = mediumDocs.AndCount(senseDocs)
		}
		ct.Counts[medium] = row
	}
	return ct
}

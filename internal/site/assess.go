package site

import (
	"fmt"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/assess"
	"pdcunplugged/internal/markdown"
)

// buildAssessmentPage renders the printable pre/post assessment sheet
// for one activity under assess/<slug>/ — the scaffolding the paper's
// Assessment section nudges authors toward, generated from the
// activity's tagged learning outcomes and topics. Activities with no
// tagged outcomes get no sheet, so this job can emit zero pages.
func (rn *renderer) buildAssessmentPage(a *activity.Activity) error {
	sheet, err := assess.Generate(a)
	if err != nil {
		return fmt.Errorf("site: assessment for %s: %w", a.Slug, err)
	}
	if len(sheet.Items) == 0 {
		return nil
	}
	body := markdown.Render(sheet.Markdown()) +
		fmt.Sprintf("<p><a href=\"/activities/%s/\">Back to the activity</a></p>\n", a.Slug)
	path := "assess/" + a.Slug + "/index.html"
	return rn.renderPage(path, "Assessment: "+a.Title, nil, body)
}

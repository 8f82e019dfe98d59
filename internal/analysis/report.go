package analysis

import "strings"

// Section is one exhibit of the paper's evaluation: a table, a figure
// or one of the §4 aggregates. Sections is the only place an exhibit is
// selected, titled or ordered; the report, wsrepro's -table/-figure and
// the query service's /tables all render through it, so a section
// printed alone is byte for byte its slice of the report.
type Section struct {
	// Kind ("table" or "figure") and Name select it: wsrepro -table NAME.
	Kind, Name string
	// Header is the line Report prints above the section ("" = none).
	Header string
	// Datasets is how many crawls the section needs: 0 for the fixed
	// exhibits (Figures 1 and 2), 2 for churn, 1 otherwise. Report omits
	// a section its datasets cannot fill.
	Datasets int
	// Standalone marks a worked example (Figure 2), never in Report.
	Standalone bool
	fn         sectionFuncs
}

// sectionFuncs are a section's three halves, typed once by with.
type sectionFuncs struct {
	rows   func(aa map[string]bool, ds []*Dataset) any
	cut    func(rows any, top int) any // nil: the section is not ranked
	render func(rows any) string
}

// with types a section's rows computation, its cut (nil when the
// section is not ranked) and its renderer as one sectionFuncs.
func with[R any](rows func(aa map[string]bool, ds []*Dataset) R, cut func(R, int) R, render func(R) string) sectionFuncs {
	f := sectionFuncs{
		rows:   func(aa map[string]bool, ds []*Dataset) any { return rows(aa, ds) },
		render: func(r any) string { return render(r.(R)) },
	}
	if cut != nil {
		f.cut = func(r any, top int) any { return cut(r.(R), top) }
	}
	return f
}

// Build computes the section over ds: its rows, JSON-able, and their
// text. top bounds the ranked tables (2–4); 0 means the paper's 15. It
// is Rows, then Cut, then Text — the halves the query service calls
// separately so it computes rows once per snapshot.
func (s *Section) Build(top int, ds ...*Dataset) (rows any, text string) {
	return s.build(top, UnionAASet(ds...), ds)
}

func (s *Section) build(top int, aa map[string]bool, ds []*Dataset) (any, string) {
	rows := s.Cut(s.Rows(aa, ds...), top)
	return rows, s.Text(rows)
}

// Rows computes every row of the section over ds, where aa must be
// UnionAASet(ds...): a ranked table (2–4) keeps all of its ranked rows,
// for Cut to bound. The result is read-only; Cut and Text never modify
// it, so one result may serve any number of cuts.
func (s *Section) Rows(aa map[string]bool, ds ...*Dataset) any { return s.fn.rows(aa, ds) }

// Cut bounds a ranked table's rows to its top entries (0 means the
// paper's 15) without touching rows; other sections pass through.
func (s *Section) Cut(rows any, top int) any {
	if s.fn.cut == nil {
		return rows
	}
	if top <= 0 {
		top = 15
	}
	return s.fn.cut(rows, top)
}

// Text renders rows as the section's text.
func (s *Section) Text(rows any) string { return s.fn.render(rows) }

// Render is the section's text as Report prints it.
func (s *Section) Render(ds ...*Dataset) string {
	_, text := s.Build(0, ds...)
	return text
}

// Sections lists the evaluation in report order.
var Sections = []Section{
	{Kind: "table", Name: "1", Header: "--- Table 1: High-level crawl statistics ---", Datasets: 1,
		fn: with(table1, nil, RenderTable1)},
	{Kind: "table", Name: "2", Header: "--- Table 2: Top 15 WebSocket initiators ---", Datasets: 1,
		fn: with(table2, cutRanked[InitiatorRow], RenderTable2)},
	{Kind: "table", Name: "3", Header: "--- Table 3: Top 15 A&A WebSocket receivers ---", Datasets: 1,
		fn: with(table3, cutRanked[ReceiverRow], RenderTable3)},
	{Kind: "table", Name: "4", Header: "--- Table 4: Top 15 initiator/receiver pairs ---", Datasets: 1,
		fn: with(table4, cutPairs, RenderTable4)},
	{Kind: "table", Name: "5", Header: "--- Table 5: Content sent/received over A&A sockets vs HTTP/S ---", Datasets: 1,
		fn: with(table5, nil, RenderTable5)},
	{Kind: "figure", Name: "1", Header: "--- Figure 1 ---",
		fn: with(func(map[string]bool, []*Dataset) []TimelineEvent { return Figure1Timeline() }, nil,
			func([]TimelineEvent) string { return RenderFigure1() })},
	{Kind: "figure", Name: "2", Standalone: true,
		fn: sectionFuncs{rows: func(map[string]bool, []*Dataset) any { return nil }, render: func(any) string { return RenderFigure2() }}},
	{Kind: "figure", Name: "3", Header: "--- Figure 3 ---", Datasets: 1,
		fn: with(func(_ map[string]bool, ds []*Dataset) []RankBin { return Figure3Binned(DefaultRankEdges, ds...) }, nil, RenderFigure3)},
	{Kind: "figure", Name: "4", Header: "--- Figure 4 ---", Datasets: 1,
		fn: with(func(_ map[string]bool, ds []*Dataset) []AdExample { return Figure4(6, ds...) }, nil, RenderFigure4)},
	{Kind: "table", Name: "overview", Datasets: 1,
		fn: with(func(_ map[string]bool, ds []*Dataset) Overview { return ComputeOverview(ds...) }, nil, RenderOverview)},
	{Kind: "table", Name: "categories", Datasets: 1,
		fn: with(func(_ map[string]bool, ds []*Dataset) []CategoryRow { return ReceiverCategories(ds...) }, nil, RenderReceiverCategories)},
	{Kind: "table", Name: "churn", Datasets: 2,
		fn: with(func(aa map[string]bool, ds []*Dataset) Churn { return ComputeChurn(ds[0], ds[len(ds)-1], aa) }, nil, RenderChurn)},
}

// Lookup returns the section selected by kind and name, or nil.
func Lookup(kind, name string) *Section {
	for i := range Sections {
		if Sections[i].Kind == kind && Sections[i].Name == name {
			return &Sections[i]
		}
	}
	return nil
}

// Report renders every section the crawls in ds can fill, in order,
// under the reproduction's banner.
func Report(ds ...*Dataset) string {
	aa := UnionAASet(ds...)
	var b strings.Builder
	b.WriteString("=== Reproduction: How Tracking Companies Circumvented Ad Blockers Using WebSockets ===\n")
	for i := range Sections {
		s := &Sections[i]
		if s.Standalone || len(ds) < s.Datasets {
			continue
		}
		b.WriteString("\n")
		if s.Header != "" {
			b.WriteString(s.Header + "\n")
		}
		_, text := s.build(0, aa, ds)
		b.WriteString(text)
	}
	return b.String()
}

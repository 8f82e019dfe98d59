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
	build      func(top int, ds []*Dataset) (rows any, text string)
}

// Build computes the section over ds: its rows, JSON-able, and their
// text. top bounds the ranked tables (2–4); 0 means the paper's 15.
func (s *Section) Build(top int, ds ...*Dataset) (rows any, text string) {
	if top <= 0 {
		top = 15
	}
	return s.build(top, ds)
}

// Render is the section's text as Report prints it.
func (s *Section) Render(ds ...*Dataset) string {
	_, text := s.Build(0, ds...)
	return text
}

// Sections lists the evaluation in report order.
var Sections = []Section{
	{Kind: "table", Name: "1", Header: "--- Table 1: High-level crawl statistics ---", Datasets: 1,
		build: with(func(_ int, ds []*Dataset) []Table1Row { return Table1(ds...) }, RenderTable1)},
	{Kind: "table", Name: "2", Header: "--- Table 2: Top 15 WebSocket initiators ---", Datasets: 1,
		build: with(func(top int, ds []*Dataset) []InitiatorRow { return Table2(top, ds...) }, RenderTable2)},
	{Kind: "table", Name: "3", Header: "--- Table 3: Top 15 A&A WebSocket receivers ---", Datasets: 1,
		build: with(func(top int, ds []*Dataset) []ReceiverRow { return Table3(top, ds...) }, RenderTable3)},
	{Kind: "table", Name: "4", Header: "--- Table 4: Top 15 initiator/receiver pairs ---", Datasets: 1,
		build: with(func(top int, ds []*Dataset) []PairRow { return Table4(top, ds...) }, RenderTable4)},
	{Kind: "table", Name: "5", Header: "--- Table 5: Content sent/received over A&A sockets vs HTTP/S ---", Datasets: 1,
		build: with(func(_ int, ds []*Dataset) Table5Result { return Table5(ds...) }, RenderTable5)},
	{Kind: "figure", Name: "1", Header: "--- Figure 1 ---",
		build: func(int, []*Dataset) (any, string) { return Figure1Timeline(), RenderFigure1() }},
	{Kind: "figure", Name: "2", Standalone: true,
		build: func(int, []*Dataset) (any, string) { return nil, RenderFigure2() }},
	{Kind: "figure", Name: "3", Header: "--- Figure 3 ---", Datasets: 1,
		build: with(func(_ int, ds []*Dataset) []RankBin { return Figure3Binned(DefaultRankEdges, ds...) }, RenderFigure3)},
	{Kind: "figure", Name: "4", Header: "--- Figure 4 ---", Datasets: 1,
		build: with(func(_ int, ds []*Dataset) []AdExample { return Figure4(6, ds...) }, RenderFigure4)},
	{Kind: "table", Name: "overview", Datasets: 1,
		build: with(func(_ int, ds []*Dataset) Overview { return ComputeOverview(ds...) }, RenderOverview)},
	{Kind: "table", Name: "categories", Datasets: 1,
		build: with(func(_ int, ds []*Dataset) []CategoryRow { return ReceiverCategories(ds...) }, RenderReceiverCategories)},
	{Kind: "table", Name: "churn", Datasets: 2,
		build: with(func(_ int, ds []*Dataset) Churn { return ComputeChurn(ds[0], ds[len(ds)-1], UnionAASet(ds...)) }, RenderChurn)},
}

// with makes a section's build from its computation and renderer.
func with[R any](compute func(top int, ds []*Dataset) R, render func(R) string) func(int, []*Dataset) (any, string) {
	return func(top int, ds []*Dataset) (any, string) {
		rows := compute(top, ds)
		return rows, render(rows)
	}
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
		b.WriteString(s.Render(ds...))
	}
	return b.String()
}

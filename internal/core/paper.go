package core

// PaperValue is one number the paper states for its Figure 1: Policy's
// speedup over LAS on App, or on the geometric mean when App is "geomean" —
// the row and column of the Figure-1 table the model produces.
type PaperValue struct {
	App, Policy string
	Speedup     float64
}

// Figure1Paper lists every Figure-1 value the paper states in its text or
// annotates on its bars: the headline RGP+LAS geomean, the NStream pair,
// and the four DFIFO slowdowns. cmd/figure1 prints them under the table,
// and TestFigure1PaperClaims checks the model against each one.
var Figure1Paper = []PaperValue{
	{"geomean", "RGP+LAS", 1.12},
	{"nstream", "EP", 1.75},
	{"nstream", "RGP+LAS", 1.74},
	{"inthist", "DFIFO", 0.40},
	{"jacobi", "DFIFO", 0.42},
	{"nstream", "DFIFO", 0.49},
	{"syminv", "DFIFO", 0.68},
}

package lint

// AnalyzerDirective polices the suppression mechanism itself. A malformed
// ignore comment (no analyzer, no reason) is always a finding, and so is one
// naming an analyzer that is not registered: it can suppress nothing, and a
// directive for a deleted analyzer would otherwise outlive it. A well-formed
// directive that suppresses nothing — its line produces no finding from any
// analyzer it names — is reported as stale, so dead ignores cannot rot in
// the tree after the code they excused is fixed.
//
// The work happens in the runner's suppression pass (applyIgnores), which
// is the only place that can see whether a directive matched: this Run is
// intentionally empty. Registering the analyzer still matters — it puts
// "directive" in the -list inventory and makes `-only directive` a valid
// (if quiet) invocation, and staleness is only reported when every analyzer
// a directive names actually ran, so a partial `-only` run never calls a
// directive stale for lack of its analyzer.
var AnalyzerDirective = &Analyzer{
	Name: "directive",
	Doc:  "flags malformed lint:ignore comments, ones naming unregistered analyzers, and stale ones that suppress nothing",
	Run:  func(*Pass) {},
}

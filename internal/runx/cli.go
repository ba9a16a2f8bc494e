package runx

// Exit codes shared by every CLI in the repo. 0 is success and 2 is a
// usage error (the flag package's convention); each structured failure
// kind gets its own code so shell scripts and CI can branch on *why* a
// run failed (retry an overloaded submission, page on a corrupt
// journal) without parsing stderr. Unstructured errors exit 1.
const (
	ExitOK           = 0
	ExitError        = 1 // unclassified failure
	ExitUsage        = 2 // flag parse / bad invocation
	ExitCanceled     = 3
	ExitDeadline     = 4
	ExitDeadlock     = 5
	ExitPanic        = 6
	ExitInvalidInput = 7
	ExitCorrupt      = 8
	ExitRegression   = 9
	ExitOverload     = 10
	ExitUnavailable  = 11

	// ExitTimeout is the SLO-layer alias for ExitDeadline: deesimctl
	// wait exits with it when a sweep exceeded its absolute deadline.
	ExitTimeout = ExitDeadline
)

// ExitCode maps an error to the shared CLI exit-code contract above.
func ExitCode(err error) int {
	if err == nil {
		return ExitOK
	}
	e, ok := As(err)
	if !ok {
		return ExitError
	}
	switch e.Kind {
	case KindCanceled:
		return ExitCanceled
	case KindDeadline:
		return ExitDeadline
	case KindDeadlock:
		return ExitDeadlock
	case KindPanic:
		return ExitPanic
	case KindInvalidInput:
		return ExitInvalidInput
	case KindCorrupt:
		return ExitCorrupt
	case KindRegression:
		return ExitRegression
	case KindOverload:
		return ExitOverload
	case KindUnavailable:
		return ExitUnavailable
	}
	return ExitError
}

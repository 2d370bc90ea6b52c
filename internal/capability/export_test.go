package capability

import (
	"errors"

	"repro/internal/fault"
)

// ErrNoGrant is Delegate's refusal.
var ErrNoGrant = fault.Fatal("capability: grant right required")

// Delegate mints a copy of r for another holder; requires the Grant right.
// It is Check(Grant) then Attenuate, which TestDelegateRequiresGrant checks.
func (s *Space) Delegate(r Ref, mask Rights) (Ref, error) {
	if err := s.Check(r, Grant); err != nil {
		if errors.Is(err, ErrDenied) {
			return Ref{}, ErrNoGrant
		}
		return Ref{}, err
	}
	return s.Attenuate(r, mask)
}

package core

import "stordep/internal/failure"

// SpareAt returns the spare placement s derived for device i, which must
// have a spare.
func SpareAt(s *System, i int) failure.Placement { return s.spareAt[i] }

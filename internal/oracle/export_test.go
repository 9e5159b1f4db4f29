package oracle

// LiveSolvers reports how many handles of s's fork family hold a solver.
func LiveSolvers(s *CNFSource) int {
	s.forks.mu.Lock()
	defer s.forks.mu.Unlock()
	return len(s.forks.live)
}

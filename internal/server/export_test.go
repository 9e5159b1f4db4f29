package server

// Restored returns how many sketches restore-on-boot loaded.
func (s *Server) Restored() int { return s.restored }

package graphalgo

// Degree returns the current degree of vertex v (exact once the full stream
// has been consumed).
func (s *StreamDegrees) Degree(v int32) int { return int(s.deg[v]) }

// Connected reports whether x and y are in the same set.
func (u *UnionFind) Connected(x, y int32) bool {
	return u.Find(x) == u.Find(y)
}

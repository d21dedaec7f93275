package graphalgo

// StreamDegrees is the degree-tracking sink of the streaming pipeline: edges
// are pushed one at a time and the accumulator maintains per-vertex degrees
// plus the one summary the paper's min-degree figures need — the number of
// vertices still below a target degree k. It runs beside StreamUnionFind in
// a single edge pass (wsn.Deployer.DeployDegreeStats), so a min-degree trial
// needs O(n) memory and no graph, at any edge count.
//
// Unlike a union-find, degree counting is NOT idempotent: each unordered
// pair must be pushed at most once (every built-in channel emitter
// guarantees this), and self-loops are ignored. BelowK is monotone
// non-increasing in the stream, so once it reaches 0 the verdict
// "min degree ≥ k" is final and a producer may stop enumerating; per-vertex
// degrees and MinDegree are exact only if the full stream was consumed.
//
// The zero value is ready after Reset. Storage is reused across Reset
// calls, so repeated trials allocate nothing in steady state. Not safe for
// concurrent use.
type StreamDegrees struct {
	deg    []int32
	k      int32
	belowK int
}

// Reset reinitializes the accumulator for n vertices and target degree k,
// reusing grown storage. k ≤ 0 is vacuously satisfied by every vertex.
func (s *StreamDegrees) Reset(n, k int) {
	if cap(s.deg) < n {
		s.deg = make([]int32, n)
	}
	s.deg = s.deg[:n]
	for i := range s.deg {
		s.deg[i] = 0
	}
	s.k = int32(k)
	s.belowK = 0
	if k > 0 {
		s.belowK = n
	}
}

// Add pushes edge (u, v), incrementing both endpoint degrees. Self-loops
// are ignored; duplicate pairs must not be pushed.
func (s *StreamDegrees) Add(u, v int32) {
	if u == v {
		return
	}
	du := s.deg[u] + 1
	s.deg[u] = du
	if du == s.k {
		s.belowK--
	}
	dv := s.deg[v] + 1
	s.deg[v] = dv
	if dv == s.k {
		s.belowK--
	}
}

// BelowK returns the number of vertices with current degree < k. It only
// decreases as edges stream in, so it is an upper bound mid-stream and
// exact once it reaches 0 or the stream ends.
func (s *StreamDegrees) BelowK() int { return s.belowK }

// AnyBelowK reports whether some vertex in [lo, hi) has current degree
// < k. A producer that knows those vertices will see no further edges uses
// it as the early-exit signal of a "min degree ≥ k" verdict that is false.
func (s *StreamDegrees) AnyBelowK(lo, hi int32) bool {
	for _, d := range s.deg[lo:hi] {
		if d < s.k {
			return true
		}
	}
	return false
}

// AllAtLeastK reports whether every vertex has reached degree k — the
// min-degree ≥ k verdict, final as soon as it turns true (vacuously true
// for n = 0 or k ≤ 0). Producers use it as an early-exit signal.
func (s *StreamDegrees) AllAtLeastK() bool { return s.belowK == 0 }

// MinDegree returns the minimum current degree (0 when n = 0, matching
// graph.Undirected.MinDegree). Exact only if the full stream was consumed;
// after an AllAtLeastK early exit it is merely a value ≥ k.
func (s *StreamDegrees) MinDegree() int {
	if len(s.deg) == 0 {
		return 0
	}
	min := s.deg[0]
	for _, d := range s.deg[1:] {
		if d < min {
			min = d
		}
	}
	return int(min)
}

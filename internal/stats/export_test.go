package stats

// Min returns the smallest observation (0 before any observation).
func (s *Summary) Min() float64 { return s.min }

// Counts returns a copy of the dense count slice.
func (h *Histogram) Counts() []int {
	return append([]int(nil), h.counts...)
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int { return h.total }

// Mean returns the mean of the recorded observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	sum := 0.0
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(h.total)
}
